package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Format initializes dev with the layout in p and returns a fresh LLD.
// It writes the superblock, an empty initial checkpoint in region 0
// and zeroes over the rest of both checkpoint regions; existing
// contents are ignored.
func Format(dev disk.Disk, p Params) (*LLD, error) {
	p = p.withDefaults()
	if err := p.Layout.Validate(); err != nil {
		return nil, fmt.Errorf("lld: %w", err)
	}
	if need := p.Layout.DiskBytes(); dev.Size() < need {
		return nil, fmt.Errorf("%w: layout needs %d bytes, device has %d", ErrBadParam, need, dev.Size())
	}
	if err := dev.WriteAt(seg.EncodeSuper(p.Layout), p.Layout.SuperOff()); err != nil {
		return nil, fmt.Errorf("lld: writing superblock: %w", err)
	}
	ck := seg.CkptRec{Base: true, CkptTS: 1, NextTS: 1, NextBlock: 1, NextList: 1, NextARU: 1}
	buf, err := seg.EncodeCkptRec(p.Layout, ck)
	if err != nil {
		return nil, err
	}
	// Both regions are written whole. Region 1 must not hold a stale
	// checkpoint that could win; region 0 must not hold the previous
	// lifetime's delta records behind the fresh base — the first of
	// them names PrevTS 1, the fresh base's CkptTS, so the chain
	// decoder would splice the old tables back onto the new disk.
	region := make([]byte, p.Layout.CkptRegionBytes())
	copy(region, buf)
	if err := dev.WriteAt(region, p.Layout.CkptOff(0)); err != nil {
		return nil, fmt.Errorf("lld: writing initial checkpoint: %w", err)
	}
	clear(region)
	if err := dev.WriteAt(region, p.Layout.CkptOff(1)); err != nil {
		return nil, fmt.Errorf("lld: clearing checkpoint region: %w", err)
	}
	// Wipe every segment trailer so images reused across formats do not
	// carry valid-looking segments from a previous lifetime into the
	// replay window.
	wipe := make([]byte, seg.SectorSize)
	for s := 0; s < p.Layout.NumSegs; s++ {
		off := p.Layout.SegOff(s) + int64(p.Layout.SegBytes) - seg.SectorSize
		if err := dev.WriteAt(wipe, off); err != nil {
			return nil, fmt.Errorf("lld: wiping segment %d trailer: %w", s, err)
		}
	}
	if err := dev.Sync(); err != nil {
		return nil, err
	}
	return Open(dev, p)
}

// RecoveryReport summarizes what Open reconstructed.
type RecoveryReport struct {
	CheckpointTS     uint64 // CkptTS of the checkpoint recovery started from
	SegmentsReplayed int    // valid segments beyond the checkpoint
	EntriesReplayed  int
	ARUsRecovered    int // ARUs whose commit record was durable
	ARUsDropped      int // uncommitted/aborted ARUs discarded
	LeakedFreed      int // blocks freed by the consistency sweep

	// Incremental-checkpoint chain and parallel-scan metrics
	// (DESIGN.md §15).
	ScanWorkers        int // worker-pool size used for the summary scan
	DeltaChainDepth    int // delta records on top of the chain base
	DeltaPagesReplayed int // table records materialized from delta records
	RedoSkipped        int // replay entries skipped by the version-bound guards

	// Two-phase commit resolution (cross-shard ARUs, internal/shard).
	// An in-doubt unit has a durable prepare record but no durable
	// commit or abort record; Params.CommitResolver decides its fate.
	InDoubt          int    // prepared units with no commit/abort record
	InDoubtCommitted int    // in-doubt units the resolver redid
	InDoubtAborted   int    // in-doubt units erased (presumed abort)
	MaxPrepareTxn    uint64 // highest coordinator txn id seen in any prepare record

	// DataHoleSeg is the window segment whose data extent failed its
	// CRC — a summary tail that landed without its data — where replay
	// was cut; -1 if none did.
	DataHoleSeg int
}

// Open mounts an LLD-formatted device, running crash recovery: it loads
// the newest valid checkpoint, replays the segment summaries beyond it
// (applying only operations whose ARU committed — all-or-nothing per
// ARU), and frees blocks leaked by uncommitted ARUs. Runtime knobs are
// taken from p; the layout always comes from the superblock.
func Open(dev disk.Disk, p Params) (*LLD, error) {
	d, _, err := OpenReport(dev, p)
	return d, err
}

// OpenReport is Open plus a report of what recovery did.
func OpenReport(dev disk.Disk, p Params) (*LLD, RecoveryReport, error) {
	p = p.withDefaults()
	var t0 time.Duration
	if p.Tracer != nil {
		t0 = p.Tracer.Now()
	}
	// Recovery roots its own trace: each replayed segment becomes a
	// child span, so a slow recovery shows *which* segment cost the
	// time (DESIGN.md §13).
	var rtrace, rspan uint64
	if p.Tracer.SpanEnabled() {
		rtrace = p.Tracer.NextID()
		rspan = p.Tracer.NextID()
	}
	sb := make([]byte, seg.SectorSize)
	if err := dev.ReadAt(sb, 0); err != nil {
		return nil, RecoveryReport{}, fmt.Errorf("lld: reading superblock: %w", err)
	}
	layout, err := seg.DecodeSuper(sb)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	p.Layout = layout

	d := &LLD{
		params:          p,
		obs:             p.Tracer,
		dev:             dev,
		blocks:          make(map[BlockID]*blockEntry),
		lists:           make(map[ListID]*listEntry),
		arus:            make(map[ARUID]*aruState),
		builder:         seg.NewBuilder(layout),
		segSeq:          make([]uint64, layout.NumSegs),
		segLive:         make([]int32, layout.NumSegs),
		segPins:         make([]int32, layout.NumSegs),
		cache:           newBlockCache(p.CacheBlocks),
		sealedBySeg:     make(map[uint32]*sealedSeg),
		reuseQuarantine: make(map[int]int),
		dirtyBlocks:     make(map[BlockID]struct{}),
		dirtyLists:      make(map[ListID]struct{}),
		ret:             new(retireSet),
		segFreeEpoch:    make([]uint64, layout.NumSegs),
	}
	d.gc.cond = sync.NewCond(&d.gc.mu)
	d.devSh, _ = dev.(sharedReader)

	chain, region, err := loadNewestChain(dev, layout)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	ck := chain.Materialize()
	d.ckptTS = ck.CkptTS
	d.ckptSeq = ck.FlushedSeq
	d.ckptRegion = region
	d.ckptChainOff = chain.NextOff
	d.ckptDepth = chain.Depth()
	d.ckptForceBase = chain.Legacy
	d.ts = ck.NextTS
	d.nextBlk = ck.NextBlock
	d.nextLst = ck.NextList
	d.nextARU = ck.NextARU

	rt := newRecoveryTables(ck)
	rpt := RecoveryReport{CheckpointTS: ck.CkptTS, DeltaChainDepth: chain.Depth(), DataHoleSeg: -1}
	for _, r := range chain.Recs[1:] {
		rpt.DeltaPagesReplayed += len(r.Blocks) + len(r.Lists) + len(r.DelBlocks) + len(r.DelLists)
	}

	// The summary scan: segment trailers — and then the replay-window
	// segments themselves — are read and decoded by a worker pool;
	// replay *application* stays strictly ordered by segment sequence
	// (DESIGN.md §15: ARU commit gating and list-chain surgery are
	// order-sensitive across segments, reads and CRC checks are not).
	workers := p.RecoveryWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > layout.NumSegs {
		workers = layout.NumSegs
	}
	rpt.ScanWorkers = workers
	var sc0 time.Duration
	if d.obs != nil {
		sc0 = d.obs.Now()
	}

	type liveSeg struct {
		idx int
		tr  seg.Trailer
	}
	trailers := make([]seg.Trailer, layout.NumSegs)
	trValid := make([]bool, layout.NumSegs)
	trErrs := make([]error, layout.NumSegs)
	var nextTr atomic.Int64
	var wgTr sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgTr.Add(1)
		go func() {
			defer wgTr.Done()
			buf := make([]byte, seg.SectorSize)
			for {
				s := int(nextTr.Add(1)) - 1
				if s >= layout.NumSegs {
					return
				}
				off := layout.SegOff(s) + int64(layout.SegBytes) - seg.SectorSize
				if err := dev.ReadAt(buf, off); err != nil {
					trErrs[s] = fmt.Errorf("lld: reading trailer of segment %d: %w", s, err)
					continue
				}
				tr, err := seg.DecodeTrailer(buf)
				if err != nil {
					continue // never written, wiped, or torn: not part of the log
				}
				trailers[s], trValid[s] = tr, true
			}
		}()
	}
	wgTr.Wait()

	var replay []liveSeg
	maxSeq := ck.FlushedSeq
	for s := 0; s < layout.NumSegs; s++ {
		if trErrs[s] != nil {
			return nil, RecoveryReport{}, trErrs[s]
		}
		if !trValid[s] {
			continue
		}
		tr := trailers[s]
		d.segSeq[s] = tr.Seq
		if tr.Seq > maxSeq {
			maxSeq = tr.Seq
		}
		if tr.Seq > ck.FlushedSeq {
			replay = append(replay, liveSeg{idx: s, tr: tr})
		}
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].tr.Seq < replay[j].tr.Seq })

	// Segments are sealed with consecutive seqs, so the replay window
	// must be a contiguous run starting right after the checkpoint. A
	// hole means the device lost or reordered an un-synced segment
	// write: everything past the hole was never acknowledged durable (a
	// completed Sync would have made the missing segment whole) and may
	// causally depend on it — replaying it could surface a partial ARU.
	// Cut there. (Found by the crash-state enumerator, internal/crashenum.)
	droppedTail := false
	expect := ck.FlushedSeq + 1
	for i, ls := range replay {
		if ls.tr.Seq != expect {
			droppedTail = true
			replay = replay[:i]
			break
		}
		expect++
	}

	// Read + decode every window segment through the pool; apply in
	// sequence order, pipelined — segment k applies while k+1… are
	// still being read. The happens-before edge is the per-slot
	// channel close.
	type segScan struct {
		entries []seg.Entry
		readErr error
		corrupt bool
		hole    bool // two-extent segment whose data extent failed its CRC
	}
	scans := make([]segScan, len(replay))
	ready := make([]chan struct{}, len(replay))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var nextSeg atomic.Int64
	var wgSeg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgSeg.Add(1)
		go func() {
			defer wgSeg.Done()
			buf := make([]byte, layout.SegBytes)
			for {
				i := int(nextSeg.Add(1)) - 1
				if i >= len(replay) {
					return
				}
				ls := replay[i]
				// Read only what the seal wrote: the summary tail, plus
				// the data prefix of a two-extent segment (its CRC is
				// the proof that the data write landed with the tail).
				// Replay needs no block contents, so a segment written
				// whole costs one tail read.
				off := layout.SegOff(ls.idx)
				tail := layout.TailOff(int(ls.tr.EntryBytes))
				dataLen := int(ls.tr.DataBlocks) * layout.BlockSize
				if tail < dataLen {
					scans[i].corrupt = true // a valid trailer never says so
					close(ready[i])
					continue
				}
				checkData := ls.tr.Split(layout) && !p.UnsafeSkipDataCRC
				err := dev.ReadAt(buf[tail:], off+int64(tail))
				if err == nil && checkData && dataLen > 0 {
					err = dev.ReadAt(buf[:dataLen], off)
				}
				if err != nil {
					scans[i].readErr = fmt.Errorf("lld: reading segment %d: %w", ls.idx, err)
					close(ready[i])
					continue
				}
				if checkData && ls.tr.VerifyData(layout, buf) != nil {
					// The tail landed without its data: an un-synced
					// hole, cut exactly like a seq gap.
					scans[i].hole = true
					close(ready[i])
					continue
				}
				entries, err := seg.DecodeEntriesFromSegment(buf, ls.tr)
				if err != nil {
					// A valid trailer with a corrupt entry region means
					// the medium failed underneath us (a torn write
					// cannot produce this).
					scans[i].corrupt = true
				} else {
					// A sealed segment groups its entries by region —
					// operations, then writes, then commit records —
					// not by time. Replay must see them in timestamp
					// order, the order the live engine produced the
					// effects: otherwise a commit record's buffered
					// operations would apply after inline operations
					// issued later than the commit, and the redo
					// version bounds would mistake that late-arriving
					// surgery for surgery already redone. The stable
					// sort keeps region order for equal stamps, which
					// is per-unit issue order.
					sort.SliceStable(entries, func(a, b int) bool {
						return entries[a].TS < entries[b].TS
					})
					scans[i].entries = entries
				}
				close(ready[i])
			}
		}()
	}
	applied := len(replay)
	var scanErr error
	for i, ls := range replay {
		<-ready[i]
		if scans[i].readErr != nil {
			scanErr = scans[i].readErr
			break
		}
		if scans[i].corrupt || scans[i].hole {
			// Stop replaying here; later segments would be causally
			// disconnected.
			if scans[i].hole {
				rpt.DataHoleSeg = ls.idx
			}
			droppedTail = true
			applied = i
			break
		}
		var st0 time.Duration
		if rspan != 0 {
			st0 = d.obs.Now()
		}
		for _, e := range scans[i].entries {
			rt.apply(e, uint32(ls.idx))
			rpt.EntriesReplayed++
		}
		d.obs.Emit(obs.EvRecoverySeg, 0, uint64(ls.idx), uint64(len(scans[i].entries)))
		if rspan != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: rtrace, ID: d.obs.NextID(), Parent: rspan,
				Kind: obs.SpanRecoverySeg, Start: st0, Dur: d.obs.Now() - st0,
				Arg1: uint64(ls.idx), Arg2: uint64(len(scans[i].entries)),
			})
		}
	}
	wgSeg.Wait()
	if scanErr != nil {
		return nil, RecoveryReport{}, scanErr
	}
	replay = replay[:applied]
	if d.obs != nil {
		d.obs.ObserveSince(obs.HistRecoveryScan, sc0)
		d.obs.Emit(obs.EvRecoveryScan, 0, uint64(workers), uint64(len(replay)))
		if rspan != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: rtrace, ID: d.obs.NextID(), Parent: rspan,
				Kind: obs.SpanRecoveryScan, Start: sc0, Dur: d.obs.Now() - sc0,
				Arg1: uint64(workers), Arg2: uint64(len(replay)),
			})
		}
	}
	rt.resolveInDoubt(p.CommitResolver, &rpt)
	rpt.RedoSkipped = rt.skipped
	rpt.SegmentsReplayed = len(replay)
	rpt.ARUsRecovered = rt.committed
	rpt.ARUsDropped = len(rt.pending)
	d.stats.RecoveredEntries.Store(int64(rpt.EntriesReplayed))
	d.stats.RecoveredARUs.Store(int64(rpt.ARUsRecovered))
	d.stats.DroppedARUs.Store(int64(rpt.ARUsDropped))

	// Install reconstructed tables.
	for id, rec := range rt.blocks {
		r := *rec
		d.blocks[id] = &blockEntry{persist: &r}
		if r.HasData {
			d.segLive[r.Seg]++
		}
		if id >= d.nextBlk {
			d.nextBlk = id + 1
		}
	}
	for id, rec := range rt.lists {
		r := *rec
		d.lists[id] = &listEntry{persist: &r}
		if id >= d.nextLst {
			d.nextLst = id + 1
		}
	}
	// Every identifier the replay touched differs (or may differ) from
	// what the on-disk chain head covers: it must ride in the next
	// delta record, or an incremental checkpoint taken after recovery
	// would silently drop the replayed effects.
	for id := range rt.touchedB {
		d.dirtyBlocks[id] = struct{}{}
	}
	for id := range rt.touchedL {
		d.dirtyLists[id] = struct{}{}
	}
	if rt.maxTS >= d.ts {
		d.ts = rt.maxTS + 1
	}
	if rt.maxARU >= d.nextARU {
		d.nextARU = rt.maxARU + 1
	}
	d.nextSeq = maxSeq + 1
	d.durableTS = d.ts - 1

	// Pick the open segment now if one is available; a completely full
	// disk still mounts (for reading and deleting) and defers the pick
	// to the first operation that needs log space.
	if cur, err := d.pickSeg(); err == nil {
		d.curSeg = cur
	} else if errors.Is(err, ErrNoSpace) {
		d.curSeg = -1
	} else {
		return nil, RecoveryReport{}, err
	}
	d.freeCache = d.reusableCount()

	// If the log tail was cut (seq hole or corrupt entry region), stale
	// valid-looking trailers beyond the cut still sit on the medium.
	// Future seals reuse their seq numbers only above maxSeq, so a later
	// recovery from the *old* checkpoint would walk into the same hole —
	// and cut off everything this incarnation writes. Seal the window
	// now with a fresh checkpoint so the dropped segments can never
	// re-enter a replay window.
	if droppedTail {
		if err := d.checkpointLocked(); err != nil && !errors.Is(err, ErrNoSpace) {
			return nil, RecoveryReport{}, fmt.Errorf("lld: sealing cut log tail: %w", err)
		}
	}

	if !p.NoAutoCheck {
		freed, err := d.checkLocked()
		if err != nil {
			// The sweep is best-effort: on a full disk there may be no
			// log space to record the frees; the blocks stay leaked
			// until space exists and CheckDisk is run again.
			if !errors.Is(err, ErrNoSpace) {
				return nil, RecoveryReport{}, err
			}
		} else {
			rpt.LeakedFreed = freed
		}
	}
	if p.RecoveryProbe != nil {
		// Test instrumentation: the head is still nil here, so a probe
		// exercising the read path observes how mid-replay reads fail.
		p.RecoveryProbe(d)
	}
	// Bootstrap the MVCC read path: freeze every recovered table entry
	// into the first epoch and publish it, so lock-free readers have a
	// head before the first client operation. (The consistency sweep
	// above already marked what it changed; the dedup flags make the
	// full sweep here cheap and exact.)
	for id, e := range d.blocks {
		d.snapDirtyBlock(e, id)
	}
	for id, e := range d.lists {
		d.snapDirtyList(e, id)
	}
	d.arusDirty = true
	d.publishLocked()

	if d.obs != nil {
		d.obs.ObserveSince(obs.HistRecovery, t0)
		d.obs.Emit(obs.EvRecoveryDone, 0, uint64(rpt.EntriesReplayed), uint64(rpt.ARUsRecovered))
		if rspan != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: rtrace, ID: rspan,
				Kind: obs.SpanRecovery, Start: t0, Dur: d.obs.Now() - t0,
				Arg1: uint64(rpt.EntriesReplayed), Arg2: uint64(rpt.ARUsRecovered),
			})
		}
	}
	return d, rpt, nil
}

// loadNewestChain decodes both checkpoint regions as incremental
// chains (a legacy v1 snapshot decodes as a one-record chain) and
// returns the one whose head record is newest, with its region index.
// A region whose chain is torn still contributes its valid prefix: a
// shorter chain only means more segments to replay, never corruption.
func loadNewestChain(dev disk.Disk, layout seg.Layout) (seg.CkptChain, int, error) {
	var (
		best       seg.CkptChain
		bestRegion = -1
	)
	var buf []byte
	for i := 0; i < 2; i++ {
		var err error
		if buf, err = readChain(dev, layout, i, buf); err != nil {
			return seg.CkptChain{}, 0, fmt.Errorf("lld: reading checkpoint region %d: %w", i, err)
		}
		c, err := seg.DecodeCkptChain(buf)
		if err != nil {
			if errors.Is(err, seg.ErrBadCheckpoint) {
				continue
			}
			return seg.CkptChain{}, 0, err
		}
		if bestRegion < 0 || c.Head().CkptTS > best.Head().CkptTS {
			best, bestRegion = c, i
		}
	}
	if bestRegion < 0 {
		return seg.CkptChain{}, 0, fmt.Errorf("%w: no valid checkpoint region", seg.ErrBadCheckpoint)
	}
	return best, bestRegion, nil
}

// readChain reads checkpoint region i into buf up to the end of its
// chain: each record's header sector names the record's length, so a
// mount reads the records and the one header that ends the chain, not
// the whole region (megabytes on a large layout, mostly unused). A
// region that does not start with a chain record (a legacy v1 snapshot,
// or garbage) is read whole.
func readChain(dev disk.Disk, layout seg.Layout, i int, buf []byte) ([]byte, error) {
	size, base := layout.CkptRegionBytes(), layout.CkptOff(i)
	read := func(from, to int64) error {
		if int64(cap(buf)) < to {
			buf = append(buf[:cap(buf)], make([]byte, to-int64(cap(buf)))...)
		}
		buf = buf[:to]
		return dev.ReadAt(buf[from:to], base+from)
	}
	var end int64
	for end+seg.SectorSize <= size {
		if err := read(end, end+seg.SectorSize); err != nil {
			return nil, err
		}
		n, ok := seg.CkptRecLen(buf[end:])
		if !ok || end+n > size {
			if end == 0 {
				err := read(0, size)
				return buf, err
			}
			break
		}
		if n > seg.SectorSize {
			if err := read(end+seg.SectorSize, end+n); err != nil {
				return nil, err
			}
		}
		end += n
	}
	return buf, nil
}

// recoveryTables reconstructs the persistent state from a checkpoint
// plus a summary replay. Operations tagged with an ARU are buffered and
// applied — at the commit record's timestamp — only when the commit
// record is reached; everything else is discarded (paper §3.3:
// "recovery is always to the most recent persistent version").
//
// Replay is REDO-only and idempotent: every applied operation carries
// a version bound (the block's write timestamp, the list's structural
// timestamp), and an operation at or below the bound already in the
// tables is skipped rather than re-derived. Re-running any prefix of
// the redo stream over already-recovered tables is therefore a no-op —
// a re-crash mid-recovery just makes the next redo shorter
// (DESIGN.md §15).
type recoveryTables struct {
	blocks map[BlockID]*seg.BlockRec
	lists  map[ListID]*seg.ListRec

	pending   map[ARUID][]pendingOp
	prepared  map[ARUID]prepRec // prepare record seen, fate undecided
	committed int
	maxTS     uint64
	maxARU    ARUID
	fallbacks int
	skipped   int // redo operations skipped by the version-bound guards

	// touchedB and touchedL name every identifier the replay modified
	// or deleted — the recovered engine's initial dirty sets, so the
	// first post-recovery delta checkpoint carries the replayed
	// effects.
	touchedB map[BlockID]struct{}
	touchedL map[ListID]struct{}
}

type pendingOp struct {
	e   seg.Entry
	seg uint32
}

// prepRec is one durable prepare record awaiting resolution: the
// coordinator transaction it belongs to and the prepare timestamp the
// unit's operations apply at if the coordinator committed.
type prepRec struct {
	txn uint64
	ts  uint64
}

func newRecoveryTables(ck seg.Checkpoint) *recoveryTables {
	rt := &recoveryTables{
		blocks:   make(map[BlockID]*seg.BlockRec, len(ck.Blocks)),
		lists:    make(map[ListID]*seg.ListRec, len(ck.Lists)),
		pending:  make(map[ARUID][]pendingOp),
		prepared: make(map[ARUID]prepRec),
		touchedB: make(map[BlockID]struct{}),
		touchedL: make(map[ListID]struct{}),
	}
	for i := range ck.Blocks {
		r := ck.Blocks[i]
		rt.blocks[r.ID] = &r
	}
	for i := range ck.Lists {
		r := ck.Lists[i]
		rt.lists[r.ID] = &r
	}
	return rt
}

// apply processes one summary entry found in segment segIdx.
func (rt *recoveryTables) apply(e seg.Entry, segIdx uint32) {
	if e.TS > rt.maxTS {
		rt.maxTS = e.TS
	}
	if e.ARU > rt.maxARU {
		rt.maxARU = e.ARU
	}
	switch e.Kind {
	case seg.KindNewBlock, seg.KindNewList:
		// Allocations are unconditional, even inside an ARU (§3.3).
		rt.applyNow(e, segIdx, e.TS)
	case seg.KindCommit:
		ops := rt.pending[e.ARU]
		delete(rt.pending, e.ARU)
		delete(rt.prepared, e.ARU)
		for _, op := range ops {
			rt.applyNow(op.e, op.seg, e.TS)
		}
		rt.committed++
	case seg.KindAbort:
		delete(rt.pending, e.ARU)
		delete(rt.prepared, e.ARU)
	case seg.KindPrepare:
		// The unit is complete and durable but its fate belongs to the
		// coordinator transaction; keep the buffered operations and
		// resolve at end of scan (resolveInDoubt).
		rt.prepared[e.ARU] = prepRec{txn: e.Txn, ts: e.TS}
	default:
		if e.ARU != seg.SimpleARU {
			rt.pending[e.ARU] = append(rt.pending[e.ARU], pendingOp{e: e, seg: segIdx})
			return
		}
		rt.applyNow(e, segIdx, e.TS)
	}
}

// resolveInDoubt decides the fate of every prepared unit whose commit
// or abort record did not survive the crash, in prepare-timestamp
// order. resolve (Params.CommitResolver, typically backed by the
// shard coordinator log) returning true redoes the unit at its prepare
// timestamp; false — or a nil resolver — presumes abort and leaves the
// unit's buffered operations to be dropped with the other uncommitted
// units, so an aborted cross-shard ARU stays as traceless as a local
// one (§3.3).
func (rt *recoveryTables) resolveInDoubt(resolve func(txn uint64) bool, rpt *RecoveryReport) {
	if len(rt.prepared) == 0 {
		return
	}
	type doubt struct {
		aru ARUID
		pr  prepRec
	}
	doubts := make([]doubt, 0, len(rt.prepared))
	for a, pr := range rt.prepared {
		doubts = append(doubts, doubt{aru: a, pr: pr})
	}
	sort.Slice(doubts, func(i, j int) bool { return doubts[i].pr.ts < doubts[j].pr.ts })
	for _, dt := range doubts {
		rpt.InDoubt++
		if dt.pr.txn > rpt.MaxPrepareTxn {
			rpt.MaxPrepareTxn = dt.pr.txn
		}
		if resolve != nil && resolve(dt.pr.txn) {
			ops := rt.pending[dt.aru]
			delete(rt.pending, dt.aru)
			for _, op := range ops {
				rt.applyNow(op.e, op.seg, dt.pr.ts)
			}
			rt.committed++
			rpt.InDoubtCommitted++
		} else {
			// Presumed abort: the operations stay in rt.pending and are
			// dropped wholesale (counted in ARUsDropped); allocations
			// were unconditional and fall to the leak sweep.
			rpt.InDoubtAborted++
		}
	}
}

// applyNow applies one entry at effective time ts, under the REDO
// version bounds: an effect the tables already hold at a timestamp at
// or past ts is never re-derived.
func (rt *recoveryTables) applyNow(e seg.Entry, segIdx uint32, ts uint64) {
	switch e.Kind {
	case seg.KindNewBlock:
		if r, ok := rt.blocks[e.Block]; ok && r.TS >= ts {
			// Identifiers are never reused, so an existing record at or
			// past ts means this allocation was already redone;
			// re-applying would wipe the block's physical address.
			rt.skipped++
			return
		}
		rt.blocks[e.Block] = &seg.BlockRec{ID: e.Block, TS: ts}
		rt.touchedB[e.Block] = struct{}{}
	case seg.KindNewList:
		if l, ok := rt.lists[e.List]; ok && l.TS >= ts {
			rt.skipped++
			return
		}
		rt.lists[e.List] = &seg.ListRec{ID: e.List, TS: ts}
		rt.touchedL[e.List] = struct{}{}
	case seg.KindWrite:
		r, ok := rt.blocks[e.Block]
		if !ok {
			// A write to a block that no longer exists indicates a
			// client race that resolved to deletion. Drop it.
			rt.fallbacks++
			return
		}
		if r.HasData && r.TS > ts {
			// Writes apply in timestamp order, not log order: a later
			// unit's already-committed version can be materialized at
			// an earlier log position than the commit record that
			// applies an earlier unit's buffered write.
			rt.fallbacks++
			return
		}
		if r.HasData && r.TS == ts && r.Seg == segIdx && r.Slot == e.Slot {
			rt.skipped++ // exact re-apply of an already-redone write
			return
		}
		r.Seg = segIdx
		r.Slot = e.Slot
		r.HasData = true
		r.TS = ts
		rt.touchedB[e.Block] = struct{}{}
	case seg.KindDeleteBlock:
		delete(rt.blocks, e.Block)
		rt.touchedB[e.Block] = struct{}{}
	case seg.KindDeleteList:
		delete(rt.lists, e.List)
		rt.touchedL[e.List] = struct{}{}
	case seg.KindLink:
		rt.applyLink(e, ts)
	case seg.KindUnlink:
		rt.applyUnlink(e, ts)
	}
}

func (rt *recoveryTables) applyLink(e seg.Entry, ts uint64) {
	l, ok := rt.lists[e.List]
	if !ok {
		rt.fallbacks++
		return
	}
	b, ok := rt.blocks[e.Block]
	if !ok {
		rt.fallbacks++
		return
	}
	// Structural version bound: list surgery applies in nondecreasing
	// commit-timestamp order, so a link at or below the list's
	// structural clock was already redone. At exactly the clock (one
	// unit's operations all apply at its commit timestamp), membership
	// disambiguates: the block already being on the list means this
	// very link applied.
	if l.TS > ts || (l.TS == ts && b.List == e.List) {
		rt.skipped++
		return
	}
	pred := e.Pred
	if pred != seg.NilBlock {
		p, ok := rt.blocks[pred]
		if !ok || p.List != e.List {
			rt.fallbacks++
			pred = seg.NilBlock
		}
	}
	if pred == seg.NilBlock {
		b.Succ = l.First
		l.First = e.Block
		if l.Last == seg.NilBlock {
			l.Last = e.Block
		}
	} else {
		p := rt.blocks[pred]
		b.Succ = p.Succ
		p.Succ = e.Block
		p.TS = ts
		if l.Last == pred {
			l.Last = e.Block
		}
	}
	b.List = e.List
	b.TS = ts
	l.TS = ts
	rt.touchedB[e.Block] = struct{}{}
	rt.touchedL[e.List] = struct{}{}
	if pred != seg.NilBlock {
		rt.touchedB[pred] = struct{}{}
	}
}

func (rt *recoveryTables) applyUnlink(e seg.Entry, ts uint64) {
	l, ok := rt.lists[e.List]
	if !ok {
		rt.fallbacks++
		return
	}
	b, ok := rt.blocks[e.Block]
	if !ok {
		rt.fallbacks++
		return
	}
	// Structural version bound, mirroring applyLink: at exactly the
	// list's clock, the block already being *off* the list means this
	// unlink applied.
	if l.TS > ts || (l.TS == ts && b.List != e.List) {
		rt.skipped++
		return
	}
	// Find the predecessor in the reconstructed chain.
	pred := seg.NilBlock
	for cur := l.First; cur != seg.NilBlock && cur != e.Block; {
		p, ok := rt.blocks[cur]
		if !ok {
			rt.fallbacks++
			return
		}
		pred = cur
		cur = p.Succ
	}
	if pred == seg.NilBlock {
		if l.First != e.Block {
			rt.fallbacks++
			return
		}
		l.First = b.Succ
	} else {
		p := rt.blocks[pred]
		p.Succ = b.Succ
		p.TS = ts
	}
	if l.Last == e.Block {
		l.Last = pred
	}
	b.Succ = seg.NilBlock
	b.List = seg.NilList
	b.TS = ts
	l.TS = ts
	rt.touchedB[e.Block] = struct{}{}
	rt.touchedL[e.List] = struct{}{}
	if pred != seg.NilBlock {
		rt.touchedB[pred] = struct{}{}
	}
}
