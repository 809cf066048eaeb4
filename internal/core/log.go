package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"aru/internal/obs"
	"aru/internal/seg"
)

// tick returns the next logical timestamp. Every logged operation gets
// a distinct, strictly increasing timestamp; the stream of blocks is
// order-preserving and "this order ... is determined by the time of an
// operation" (paper §3.1).
func (d *LLD) tick() uint64 {
	t := d.ts
	d.ts++
	return t
}

// ensureRoom makes sure the open segment can still absorb extraBlocks
// data blocks and extraEntries summary entries on top of everything
// already accumulated — including the committed-state buffers that will
// materialize into it at seal time (one block and one entry each).
// When the segment cannot, it is sealed and written out.
func (d *LLD) ensureRoom(extraBlocks, extraEntries int) error {
	if d.curSeg < 0 {
		// Mounted on a full disk: the open segment is picked lazily,
		// so a disk that only needs reading mounts fine.
		next, err := d.pickSeg()
		if err != nil {
			return err
		}
		d.curSeg = next
		d.freeCache = d.reusableCount()
	}
	// pendingCommits holds commit and (larger) prepare records; size
	// for the larger kind so a queued prepare can never overflow the
	// seal.
	entryBytes := extraEntries*seg.MaxEntrySize +
		d.commBufBlocks*seg.EncodedSize(seg.KindWrite) +
		len(d.pendingCommits)*seg.EncodedSize(seg.KindPrepare)
	if d.builder.FitsBytes(extraBlocks+d.commBufBlocks, entryBytes) {
		return nil
	}
	return d.writeCurSeg()
}

// growthAllowed reports whether growth operations may proceed: at least
// GrowthReserve reusable segments must remain beyond the open one, so
// de-allocations always have log space left to free the disk with.
func (d *LLD) growthAllowed() bool {
	if d.params.GrowthReserve < 0 {
		return true
	}
	if d.freeCache >= d.params.GrowthReserve {
		return true
	}
	// The cache was computed at the last segment write, possibly while
	// freshly freed segments were still epoch-gated (segReusable); any
	// publish since then may have unlocked them, so rescan before
	// refusing growth.
	d.freeCache = d.reusableCount()
	return d.freeCache >= d.params.GrowthReserve
}

// appendEntry appends one summary entry to the current segment, writing
// the segment out first if the entry does not fit.
func (d *LLD) appendEntry(e seg.Entry) error {
	if err := d.ensureRoom(0, 1); err != nil {
		return err
	}
	d.builder.AddEntry(e)
	d.stats.EntriesLogged.Add(1)
	return nil
}

// appendBlockWrite appends one block of data plus its write entry to
// the current segment (as a unit, so the entry always describes a slot
// of the same segment). It returns the physical location. Used by the
// cleaner; client writes go through in-memory buffers instead.
func (d *LLD) appendBlockWrite(aru ARUID, ts uint64, id BlockID, lst ListID, data []byte) (segIdx, slot uint32, err error) {
	if err := d.ensureRoom(1, 1); err != nil {
		return 0, 0, err
	}
	slot = d.builder.AddBlock(data)
	d.builder.AddEntry(seg.Entry{
		Kind:  seg.KindWrite,
		ARU:   aru,
		TS:    ts,
		Block: id,
		List:  lst,
		Slot:  slot,
	})
	d.stats.EntriesLogged.Add(1)
	return uint32(d.curSeg), slot, nil
}

// materializeCommitted moves every buffered committed-state version
// into the open segment, emitting its write entry. Versions belonging
// to a unit whose commit record is not yet logged keep their ARU tag,
// so recovery still treats the unit atomically; everything else is
// emitted on the merged stream (tag 0) at the record's current
// timestamp. Capacity is guaranteed by ensureRoom's accounting.
func (d *LLD) materializeCommitted() {
	pending := d.matScratch[:0]
	for ab := d.commBlocks; ab != nil; ab = ab.nextState {
		if ab.prevData != nil {
			// The stashed pre-unit version: the version an open unit
			// overwrote while its own commit record is still pending.
			// It is emitted on the merged stream so that, should only
			// this segment survive, the earlier unit stays complete.
			pending = append(pending, matItem{ab: ab, data: ab.prevData, ts: ab.prevTS, prev: true})
		}
		if ab.data != nil {
			tag := seg.SimpleARU
			if ab.commitTS == gateOpen {
				tag = ab.wtag
			}
			pending = append(pending, matItem{ab: ab, data: ab.data, ts: ab.rec.TS, tag: tag})
		}
	}
	// Write in logical-time order so blocks written together lie
	// together on disk — the stream of blocks is order-preserving
	// (paper §3.1), and sequential re-reads stay sequential.
	d.matSort.items = pending
	sort.Sort(&d.matSort)
	d.matSort.items = nil
	for _, it := range pending {
		slot := d.builder.AddBlock(it.data)
		d.builder.AddEntry(seg.Entry{
			Kind:  seg.KindWrite,
			ARU:   it.tag,
			TS:    it.ts,
			Block: it.ab.id,
			Slot:  slot,
		})
		d.stats.EntriesLogged.Add(1)
		d.stats.BlocksMaterialized.Add(1)
		if d.cache != nil {
			// The data is in hand; future reads of the new location
			// must not pay a disk access for contents we just wrote.
			d.cache.put(uint32(d.curSeg), slot, it.data)
		}
		if it.prev {
			d.stats.PrevVersionsEmitted.Add(1)
			d.dropPrevData(it.ab)
		} else {
			d.setBlockPhys(it.ab, uint32(d.curSeg), slot, it.tag)
		}
	}
	// Keep the scratch capacity for the next seal; zero the elements so
	// retired records and recycled buffers are not retained through it.
	for i := range pending {
		pending[i] = matItem{}
	}
	d.matScratch = pending[:0]
}

// lastTS returns the timestamp that will be durable once the current
// segment is written: the logical clock has already advanced past every
// logged operation.
func (d *LLD) lastTS() uint64 {
	if d.ts == 0 {
		return 0
	}
	return d.ts - 1
}

// writeCurSeg seals the current segment, writes it to disk, promotes
// committed state covered by the new durable watermark, and opens the
// next segment. A no-op when the builder is empty.
func (d *LLD) writeCurSeg() error {
	if d.curSeg < 0 {
		// Nothing is ever buffered while no segment is open (ensureRoom
		// picks one before any append), so there is nothing to write.
		return nil
	}
	d.materializeCommitted()
	for _, e := range d.pendingCommits {
		d.builder.AddEntry(e)
		d.stats.EntriesLogged.Add(1)
	}
	d.pendingCommits = d.pendingCommits[:0]
	if d.builder.Empty() {
		return nil
	}
	if err := d.writeSegment(d.curSeg, d.nextSeq, d.builder.Seal(d.nextSeq), nil); err != nil {
		return err
	}
	d.devDirty = true
	d.wgen++
	d.segSeq[d.curSeg] = d.nextSeq
	d.nextSeq++
	d.segsSinceC++
	d.durableTS = d.lastTS()
	d.promote()
	// Published snapshots may still serve reads from this builder's
	// buffer (snapshot.readPhys via curBld), so it retires with the
	// current epoch instead of being reset in place; recycleBuilder
	// resets it once no snapshot can reach it.
	d.putBuilder(d.builder)
	d.builder = d.takeBuilder()
	// No open segment until the next pick succeeds: the one just
	// written lives on the device now, and a publish from pickSeg's
	// retry path must not pin the empty replacement builder under the
	// written segment's index.
	d.curSeg = -1
	next, err := d.pickSeg()
	if err != nil {
		return err
	}
	d.curSeg = next
	d.freeCache = d.reusableCount()
	d.maybeMaintain()
	d.freeCache = d.reusableCount()
	return nil
}

// writeSegment writes the extents of sealed segment idx (log sequence
// number seq) to the device and records the seg-flush telemetry. It is
// the one device-write path for segments: the serial seal, the
// group-commit leader and the serial drain of leader-sealed segments
// all go through it. bt, when it carries a batch span, parents the
// seg-flush span on it.
func (d *LLD) writeSegment(idx int, seq uint64, ext []seg.Extent, bt *batchTrace) error {
	var t0 time.Duration
	if d.obs != nil {
		t0 = d.obs.Now()
	}
	off := d.params.Layout.SegOff(idx)
	for _, x := range ext {
		if err := d.dev.WriteAt(x.Data, off+int64(x.Off)); err != nil {
			return fmt.Errorf("lld: writing segment %d: %w", idx, err)
		}
	}
	d.stats.SegmentsWritten.Add(1)
	if d.obs != nil {
		now := d.obs.Now()
		d.obs.Observe(obs.HistSegFlush, now-t0)
		d.obs.Emit(obs.EvSegFlush, 0, uint64(idx), seq)
		if bt != nil && bt.span != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: bt.trace, ID: d.obs.NextID(), Parent: bt.span,
				Kind: obs.SpanSegFlush, Start: t0, Dur: now - t0,
				Arg1: uint64(idx), Arg2: seq,
			})
		}
	}
	return nil
}

// maybeMaintain runs background maintenance after a segment write or a
// commit: automatic checkpoints, the cleaner, and the sweep of aborted
// units' allocations. All are skipped while an ARU is open (a
// checkpoint taken with an open ARU could strand its earlier log
// entries outside the replay window, and an open unit may claim a
// block the sweep would free) and while the cleaner itself is running.
func (d *LLD) maybeMaintain() {
	if d.inClean || len(d.arus) != 0 {
		return
	}
	if len(d.sealed) != 0 {
		// Sealed-but-unsynced segments are queued (possibly claimed by
		// an in-flight batch leader): checkpoint and cleaner must wait
		// until the batch completes. finishBatchLocked re-runs us with
		// the queue empty.
		return
	}
	if d.params.CheckpointEvery > 0 && d.segsSinceC >= d.params.CheckpointEvery {
		if err := d.checkpointLocked(); err != nil {
			return // non-fatal: retried after the next segment write
		}
	}
	if d.reusableCount() < d.params.CleanerLowWater {
		d.cleanLocked(d.params.CleanerTargetFree)
	}
	if len(d.abortAllocs) != 0 {
		// The consistency check of paper §3.3, restricted to the blocks
		// aborted units inserted. Without it a workload that keeps
		// aborting grows the tables — and with them every base
		// checkpoint, the heap and the next mount's sweep — for as long
		// as the disk stays mounted. A failed free is retried next time.
		if _, err := d.freeLeaked(d.abortAllocs); err == nil {
			d.abortAllocs = d.abortAllocs[:0]
		}
	}
}

// segFreeable reports whether segment s holds no state the log still
// needs: it is not the current segment, holds no live persistent
// blocks, is not pinned by alternative records, and — if it was ever
// written — lies at or below the checkpoint watermark (so its summary
// entries are already subsumed by the checkpoint tables and recovery
// will not miss them).
func (d *LLD) segFreeable(s int) bool {
	if s == d.curSeg {
		return false
	}
	if d.segPins[s] != 0 || d.segLive[s] != 0 {
		return false
	}
	if d.reuseQuarantine[s] > 0 {
		// The segment's last live blocks were superseded by a sealed
		// segment whose batch has not synced yet: rewriting it now
		// could leave a crash state where the rewrite survives but the
		// superseding segment does not (DESIGN.md §11).
		return false
	}
	if _, sealed := d.sealedBySeg[uint32(s)]; sealed {
		return false // defensive: seq > ckptSeq already excludes it
	}
	return d.segSeq[s] == 0 || d.segSeq[s] <= d.ckptSeq
}

// segReusable reports whether segment s may be (re)written right now:
// freeable, and drained of snapshot readers.
func (d *LLD) segReusable(s int) bool {
	if !d.segFreeable(s) {
		return false
	}
	if d.oldestEpoch.Load() < d.segFreeEpoch[s] {
		// A published snapshot from before the segment's blocks were
		// freed could still read its old contents from the device;
		// rewriting it would tear those lock-free reads. The segment
		// frees once every epoch before segFreeEpoch[s] has purged.
		return false
	}
	return true
}

// reusableCount counts freeable segments — the space-accounting view.
// A segment gated only by the snapshot epoch (segReusable) still
// counts: the gate lifts at the next op boundary's publish without any
// new I/O, so policy decisions (cleaner low-water and progress, the
// growth reserve) must not treat a merely undrained segment as
// occupied, or they over-clean and refuse growth the disk can absorb.
func (d *LLD) reusableCount() int {
	n := 0
	for s := 0; s < d.params.Layout.NumSegs; s++ {
		if d.segFreeable(s) {
			n++
		}
	}
	return n
}

// pickSeg selects the next segment to fill: never-written segments
// first, then the oldest reusable one. Reusing a previously written
// segment drops any cached blocks of its old contents. If nothing is
// reusable, drained snapshot epochs are purged (releasing their
// segment pins) and the scan retried once before reporting ErrNoSpace.
func (d *LLD) pickSeg() (int, error) {
	best := d.scanReusable()
	if best == -2 {
		// At an op-consistent point, publish first: segments freed in
		// the current window are stamped past the live epoch and only
		// unlock once a fresh epoch is published and drained. Mid-op,
		// purging drained epochs is all that is safe.
		if d.pubSafe {
			d.publishLocked()
		} else {
			d.purgeLocked()
		}
		best = d.scanReusable()
	}
	if best < 0 {
		return 0, ErrNoSpace
	}
	if d.segSeq[best] != 0 && d.cache != nil {
		d.cache.purgeSeg(uint32(best))
	}
	return best, nil
}

// scanReusable returns the best segment to fill next (-2 if none):
// never-written segments first, then the oldest reusable one.
func (d *LLD) scanReusable() int {
	best, bestSeq := -2, ^uint64(0)
	for s := 0; s < d.params.Layout.NumSegs; s++ {
		if !d.segReusable(s) {
			continue
		}
		if d.segSeq[s] == 0 {
			return s
		}
		if d.segSeq[s] < bestSeq {
			best, bestSeq = s, d.segSeq[s]
		}
	}
	return best
}

// promote moves every committed record whose commit timestamp is now
// durable into the persistent state (the committed→persistent
// transition of paper §3.1, triggered by writes to disk).
func (d *LLD) promote() {
	w := d.durableTS
	var keepB *altBlock
	for ab := d.commBlocks; ab != nil; {
		next := ab.nextState
		if ab.commitTS <= w && ab.data == nil {
			d.promoteBlock(ab)
		} else {
			ab.nextState = keepB
			keepB = ab
		}
		ab = next
	}
	d.commBlocks = keepB

	var keepL *altList
	for al := d.commLists; al != nil; {
		next := al.nextState
		if al.commitTS <= w {
			d.promoteList(al)
		} else {
			al.nextState = keepL
			keepL = al
		}
		al = next
	}
	d.commLists = keepL
}

// promoteBlock installs ab as the persistent version of its block (or
// removes the persistent version if ab is a deletion) and retires ab.
func (d *LLD) promoteBlock(ab *altBlock) {
	d.stats.RecordsPromoted.Add(1)
	d.dirtyBlocks[ab.id] = struct{}{}
	e := d.blocks[ab.id]
	if e.persist != nil && e.persist.HasData {
		d.segLive[e.persist.Seg]--
		d.segFreeEpoch[e.persist.Seg] = d.epoch + 1
		if d.sealFrees != nil {
			// Promotion driven by a broker seal: remember which
			// segments lost live blocks so they stay quarantined from
			// reuse until the seal's batch has synced.
			*d.sealFrees = append(*d.sealFrees, int(e.persist.Seg))
		}
	}
	if ab.deleted {
		e.persist = nil
	} else {
		// Reuse the persistent record in place: nothing retains the
		// pointer across operations (all readers copy the value under
		// d.mu).
		if e.persist == nil {
			e.persist = new(seg.BlockRec)
		}
		*e.persist = ab.rec
		if ab.rec.HasData {
			d.segLive[ab.rec.Seg]++
		}
	}
	d.dropAltBlock(e, ab)
	if e.empty() {
		delete(d.blocks, ab.id)
	}
	d.freeAltBlock(ab)
}

// promoteList installs al as the persistent version of its list.
func (d *LLD) promoteList(al *altList) {
	d.stats.RecordsPromoted.Add(1)
	d.dirtyLists[al.id] = struct{}{}
	e := d.lists[al.id]
	if al.deleted {
		e.persist = nil
	} else {
		if e.persist == nil {
			e.persist = new(seg.ListRec)
		}
		*e.persist = al.rec
	}
	d.dropAltList(e, al)
	if e.empty() {
		delete(d.lists, al.id)
	}
	d.freeAltList(al)
}

// readPhys reads the block stored at (segIdx, slot) into dst: from the
// in-memory segment under construction if the location is current,
// otherwise from disk through the read cache.
func (d *LLD) readPhys(segIdx, slot uint32, dst []byte) error {
	if int(segIdx) == d.curSeg {
		copy(dst, d.builder.BlockData(slot))
		return nil
	}
	if e, ok := d.sealedBySeg[segIdx]; ok {
		// Sealed by a batch leader, device write/sync still pending (or
		// failed and awaiting retry): serve from the retained image.
		// The map is only mutated under the write lock, so this read is
		// safe under the read lock.
		bs := d.params.Layout.BlockSize
		copy(dst, e.img[int(slot)*bs:(int(slot)+1)*bs])
		return nil
	}
	if d.cache != nil {
		if d.cache.get(segIdx, slot, dst) {
			d.stats.CacheHits.Add(1)
			return nil
		}
		d.stats.CacheMisses.Add(1)
	}
	bs := int64(d.params.Layout.BlockSize)
	off := d.params.Layout.SegOff(int(segIdx)) + int64(slot)*bs
	if err := d.dev.ReadAt(dst, off); err != nil {
		return fmt.Errorf("lld: reading block at seg %d slot %d: %w", segIdx, slot, err)
	}
	if d.cache != nil {
		d.cache.put(segIdx, slot, dst)
	}
	return nil
}

// physKey identifies a cached block by physical location.
type physKey struct {
	seg, slot uint32
}

// blockCache is a lock-free, fully associative cache of persistent
// block contents, shared by the locked engine paths and the MVCC
// snapshot readers (DESIGN.md §16).
//
// Layout: an open-addressed hash table of atomic entry pointers kept
// at a low load factor (cacheOver slots per cached block, probes
// bounded at cacheProbe), plus a FIFO ring of keys that bounds
// residency at the configured capacity — a fill claims the next ring
// position with one atomic add and evicts whatever key it displaces.
// Every operation is mutexes-free: a probe is a handful of atomic
// loads, a fill is an atomic swap on the ring plus an atomic store
// into the table. That keeps the snapshot read path at zero mutex
// acquisitions (the property the readscale gate asserts), and — unlike
// a set-associative table — a working set up to the capacity stays
// fully resident, which the modeled fig5/fig6 read phases depend on:
// the striped LRU this replaces served them entirely from memory, and
// conflict misses would each cost a modeled disk access.
//
// Concurrent fills from snapshot readers are safe without further
// synchronization: entries are immutable, every slot transition is an
// atomic store or CAS, and a lost race costs at most one cache entry
// (strictly weaker residency, never a wrong answer). Staleness is
// ruled out by the epoch discipline — a reader fills (seg, slot) only
// while its epoch pins that segment against reuse (segFreeEpoch), and
// purgeSeg runs under d.mu at reuse time, before any record naming
// the segment's new contents is published, so no published record can
// lead a reader to a pre-reuse entry.
type blockCache struct {
	slots  []atomic.Pointer[cacheEnt] // power-of-two open-addressed table
	mask   uint32
	ring   []atomic.Uint64 // FIFO of packed keys; 0 = empty
	cursor atomic.Uint64   // next ring position to claim
}

const (
	// cacheOver is the table-slot overprovisioning factor. At load
	// factor 1/cacheOver a cacheProbe-long window essentially never
	// fills, so fills are effectively never dropped below capacity.
	cacheOver = 4
	// cacheProbe bounds the linear-probe window. Lookups scan the
	// whole window (evictions punch holes, so a nil slot cannot end a
	// probe); hits usually land within the first couple of slots.
	cacheProbe = 16
)

type cacheEnt struct {
	key  physKey
	data []byte // immutable once the entry is published
}

// packKey biases the key by one so the ring's zero value means empty
// (seg 0, slot 0 is a valid physical location).
func packKey(k physKey) uint64 { return uint64(k.seg)<<32 | uint64(k.slot) + 1 }

func unpackKey(p uint64) physKey {
	p--
	return physKey{seg: uint32(p >> 32), slot: uint32(p)}
}

func newBlockCache(capBlocks int) *blockCache {
	if capBlocks <= 0 {
		return nil
	}
	n := 1
	for n < capBlocks*cacheOver {
		n <<= 1
	}
	return &blockCache{
		slots: make([]atomic.Pointer[cacheEnt], n),
		mask:  uint32(n - 1),
		ring:  make([]atomic.Uint64, capBlocks),
	}
}

// hash spreads the low, strongly patterned seg/slot bits (Fibonacci).
func cacheHash(k physKey) uint32 {
	return (k.seg*0x9e3779b9 + k.slot) * 0x9e3779b9
}

func (c *blockCache) get(segIdx, slot uint32, dst []byte) bool {
	k := physKey{segIdx, slot}
	h := cacheHash(k)
	for i := uint32(0); i < cacheProbe; i++ {
		if e := c.slots[(h+i)&c.mask].Load(); e != nil && e.key == k {
			copy(dst, e.data)
			return true
		}
	}
	return false
}

func (c *blockCache) put(segIdx, slot uint32, data []byte) {
	k := physKey{segIdx, slot}
	cp := make([]byte, len(data))
	copy(cp, data)
	ent := &cacheEnt{key: k, data: cp}

	// Claim a ring position and evict whatever key it held: residency
	// never exceeds the ring's capacity (a concurrent duplicate of the
	// same key only tightens that bound — its earlier ring entry
	// evicts the key sooner, never late).
	pos := c.cursor.Add(1) - 1
	if old := c.ring[pos%uint64(len(c.ring))].Swap(packKey(k)); old != 0 && old != packKey(k) {
		c.drop(unpackKey(old))
	}

	h := cacheHash(k)
	firstNil := -1
	for i := uint32(0); i < cacheProbe; i++ {
		p := &c.slots[(h+i)&c.mask]
		e := p.Load()
		if e == nil {
			if firstNil < 0 {
				firstNil = int(i)
			}
			continue
		}
		if e.key == k {
			p.Store(ent) // refresh in place
			return
		}
	}
	if firstNil >= 0 {
		// CAS so a racing fill of a different key into the same hole is
		// not clobbered; on failure the fill is simply dropped.
		c.slots[(h+uint32(firstNil))&c.mask].CompareAndSwap(nil, ent)
	}
}

// drop removes k's table entry (eviction; one CAS attempt — a racing
// replacement of the same slot may keep it, costing residency only).
func (c *blockCache) drop(k physKey) {
	h := cacheHash(k)
	for i := uint32(0); i < cacheProbe; i++ {
		p := &c.slots[(h+i)&c.mask]
		if e := p.Load(); e != nil && e.key == k {
			p.CompareAndSwap(e, nil)
			return
		}
	}
}

// purgeSeg drops all cached blocks of one segment (called under d.mu
// when the segment is about to be rewritten with new contents). Stale
// ring entries for the purged keys remain and later evict nothing.
func (c *blockCache) purgeSeg(segIdx uint32) {
	for i := range c.slots {
		if e := c.slots[i].Load(); e != nil && e.key.seg == segIdx {
			c.slots[i].CompareAndSwap(e, nil)
		}
	}
}
