package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Epoch-based MVCC read path (DESIGN.md §16).
//
// Every committed mutation publishes a new epoch: an immutable
// snapshot of the block-map, the list-table and the open-ARU set,
// built copy-on-write behind a single atomic head pointer. Readers do
// one atomic load plus a refcount increment and never touch d.mu;
// writers path-copy the persistent tries (epochmap.go) for the entries
// they dirtied and swing the head at the durability point of the
// operation. Everything an epoch unshared from its successor — trie
// nodes, block buffers, per-entry snapshot records, retired segment
// builders and sealed images — is parked on the epoch's retire-set and
// recycled into the engine free lists only when the epoch's refcount
// drains, oldest epoch first. The discipline (atomic head, acquire =
// load+incref+revalidate, purge-on-drain with a retry counter) follows
// the bogn snapshot design in bnclabs/gostore.
//
// Lifecycle of one snapshot:
//
//	publish ──► head (live) ──► retired (next published) ──► drained
//	                                  │ ref != 0                │
//	                                  └──── purge retry ◄───────┘
//	                                                 ──► pooled
//
// Purge is strictly oldest-first: a pinned snapshot also pins every
// younger retired epoch, because an object retired in window k may
// still be referenced by ANY snapshot of epoch <= k. Draining epochs
// out of order could recycle a buffer some older pinned snapshot still
// exposes.

// segNone marks "no open segment" in a snapshot.
const segNone = ^uint32(0)

// sharedReader is the optional device interface for reads that bypass
// the device mutex (disk.Sim and disk.File both provide it). Snapshot
// readers use it so a Read performs zero mutex acquisitions end to
// end; devices without it fall back to the locked ReadAt.
type sharedReader interface {
	ReadAtShared(p []byte, off int64) error
}

// blockVer is one alternative version of a block frozen into an
// epoch: the fields of the live altBlock a reader consults, copied by
// value. The data buffer is shared with the live record — safe because
// buffers are immutable once installed (Write always installs a fresh
// buffer) and are recycled only through the retire-set of the epoch
// that unshared them.
type blockVer struct {
	aru     ARUID
	deleted bool
	rec     seg.BlockRec
	data    []byte
}

// blockSnap is the snapshot image of one blockEntry: the persistent
// record by value (promote mutates the live one in place) plus the
// alternative versions in same-identifier chain order, so the first
// match is the same version findAlt would return.
type blockSnap struct {
	hasPersist bool
	persist    seg.BlockRec
	vers       []blockVer
}

func (sn *blockSnap) find(aru ARUID) *blockVer {
	for i := range sn.vers {
		if sn.vers[i].aru == aru {
			return &sn.vers[i]
		}
	}
	return nil
}

// listVer / listSnap are the list analogues.
type listVer struct {
	aru     ARUID
	deleted bool
	rec     seg.ListRec
}

type listSnap struct {
	hasPersist bool
	persist    seg.ListRec
	vers       []listVer
}

func (sn *listSnap) find(aru ARUID) *listVer {
	for i := range sn.vers {
		if sn.vers[i].aru == aru {
			return &sn.vers[i]
		}
	}
	return nil
}

// snapSeal pins one sealed-but-unwritten segment image so snapshot
// readers can serve blocks whose records already point at it.
type snapSeal struct {
	idx uint32
	img []byte
}

// aruMark is the value type of the open-ARU trie: presence = the ARU
// exists in this epoch, which mark = whether it is frozen by
// PrepareARU. (Distinct interface values, not pointers to zero-size
// objects — those all share one address and would compare equal.)
type aruMark int

var (
	aruOpenVal     any = aruMark(1)
	aruPreparedVal any = aruMark(2)
)

// retireSet collects everything one publish window unshared from the
// next epoch. It is attached to the previous head at publish time and
// drained back into the engine free lists when that epoch's refcount
// reaches zero.
type retireSet struct {
	nodes    []*pnode
	bufs     [][]byte
	bsnaps   []*blockSnap
	lsnaps   []*listSnap
	builders []*seg.Builder
	seals    []*sealedSeg
}

// snapshot is one published epoch. All fields except ref are written
// once before the head swing and never mutated afterwards (next and
// ret are written under d.mu when the epoch is retired, and only read
// under d.mu by the purge path — readers never touch them).
type snapshot struct {
	// ref counts readers holding this epoch. It is the ONLY field a
	// reader may touch before revalidating the head, so the struct can
	// be pooled without resetting it: a straggler's +1/−1 pair on a
	// recycled struct nets zero on whatever incarnation it lands on.
	ref atomic.Int64

	epoch   uint64
	closed  bool
	blocks  *pnode // BlockID -> *blockSnap
	lists   *pnode // ListID  -> *listSnap
	arus    *pnode // ARUID   -> aruOpenVal | aruPreparedVal
	nBlocks int    // block-map size at publish (cycle guard bound)
	variant Variant
	readSem ReadSemantics
	bs      int

	// Physical-read plumbing: the open segment under construction, the
	// sealed-but-unwritten images, and the device. The builder's
	// committed slots are immutable (AddBlock only appends, Seal's
	// entry region never overlaps data slots) and the builder is
	// recycled only through a retire-set, so lock-free BlockData reads
	// are safe for the slots this epoch's records reference.
	curIdx uint32
	curBld *seg.Builder
	sealed []snapSeal
	dev    disk.Disk
	devSh  sharedReader
	layout seg.Layout
	cache  *blockCache // shared lock-free read cache (may be nil)
	cnt    *lldStats   // live atomic counters, for hit/miss accounting

	// stats is the counter snapshot taken at publish: one coherent
	// view of every mu-guarded counter for this epoch (see Stats).
	stats Stats

	next *snapshot  // younger epoch (purge-chain link)
	ret  *retireSet // objects this epoch's successor unshared
}

// acquireSnap pins and returns the current epoch (nil only before the
// first publish, i.e. during construction, or after the head was
// cleared). Lock-free: load, incref, revalidate; if the head moved
// between the load and the incref the ref may have landed on a retired
// (or even recycled) snapshot, so undo and retry.
func (d *LLD) acquireSnap() *snapshot {
	for {
		s := d.head.Load()
		if s == nil {
			return nil
		}
		s.ref.Add(1)
		if d.head.Load() == s {
			return s
		}
		s.release()
	}
}

// release drops one reader reference. The snapshot stays consultable —
// purge runs only under d.mu on retired epochs that have drained.
func (s *snapshot) release() {
	if s.ref.Add(-1) < 0 {
		panic("lld: snapshot refcount went negative")
	}
}

// snapDirtyBlock marks a block entry as touched since the last
// publish; its trie leaf is rebuilt at the next publish. The flag
// dedupes: an id enters the dirty list at most once per window.
func (d *LLD) snapDirtyBlock(e *blockEntry, id BlockID) {
	if !e.snapDirty {
		e.snapDirty = true
		d.dirtyB = append(d.dirtyB, id)
	}
}

// snapDirtyList is the list analogue.
func (d *LLD) snapDirtyList(e *listEntry, id ListID) {
	if !e.snapDirty {
		e.snapDirty = true
		d.dirtyL = append(d.dirtyL, id)
	}
}

// snapGoneBlock records that a block entry was removed from the map.
// Appends unconditionally (the entry, and its dedup flag, are gone);
// the publish loop tolerates duplicates.
func (d *LLD) snapGoneBlock(id BlockID) {
	d.dirtyB = append(d.dirtyB, id)
}

// snapGoneList is the list analogue.
func (d *LLD) snapGoneList(id ListID) {
	d.dirtyL = append(d.dirtyL, id)
}

// buildBlockSnap freezes the current state of e into a snapshot
// record.
func (d *LLD) buildBlockSnap(e *blockEntry) *blockSnap {
	sn := d.takeBSnap()
	if e.persist != nil {
		sn.hasPersist = true
		sn.persist = *e.persist
	}
	for ab := e.altHead; ab != nil; ab = ab.nextID {
		sn.vers = append(sn.vers, blockVer{aru: ab.aru, deleted: ab.deleted, rec: ab.rec, data: ab.data})
	}
	return sn
}

func (d *LLD) buildListSnap(e *listEntry) *listSnap {
	sn := d.takeLSnap()
	if e.persist != nil {
		sn.hasPersist = true
		sn.persist = *e.persist
	}
	for al := e.altHead; al != nil; al = al.nextID {
		sn.vers = append(sn.vers, listVer{aru: al.aru, deleted: al.deleted, rec: al.rec})
	}
	return sn
}

// publishLocked builds and publishes the next epoch from the dirty
// sets accumulated since the previous publish. Callers hold d.mu and
// call it only at points where the committed state is op-consistent
// (operation boundaries, or the maintenance points flagged by
// d.pubSafe). Publishing is idempotent about staleness: a skipped
// publish just leaves the dirty sets for the next one.
func (d *LLD) publishLocked() {
	if n := d.params.UnsafeStaleHeadEvery; n > 0 && d.head.Load() != nil {
		// Fault injection for the linearizability harness: silently
		// drop every n-th publish, serving readers a stale epoch. The
		// dirty sets survive, so the following publish catches up.
		d.pubSkip++
		if d.pubSkip%n == 0 {
			return
		}
	}
	old := d.head.Load()

	// Rebuild the trie leaves of every entry dirtied this window.
	for _, id := range d.dirtyB {
		e, ok := d.blocks[id]
		if !ok {
			if v := pmapGet(d.blocksRoot, uint64(id)); v != nil {
				d.retireBSnap(v.(*blockSnap))
				d.blocksRoot = d.pmapDelete(d.blocksRoot, uint64(id))
			}
			continue
		}
		if !e.snapDirty { // duplicate dirty entry, already rebuilt
			continue
		}
		e.snapDirty = false
		if v := pmapGet(d.blocksRoot, uint64(id)); v != nil {
			d.retireBSnap(v.(*blockSnap))
		}
		d.blocksRoot = d.pmapSet(d.blocksRoot, uint64(id), d.buildBlockSnap(e))
	}
	d.dirtyB = d.dirtyB[:0]
	for _, id := range d.dirtyL {
		e, ok := d.lists[id]
		if !ok {
			if v := pmapGet(d.listsRoot, uint64(id)); v != nil {
				d.retireLSnap(v.(*listSnap))
				d.listsRoot = d.pmapDelete(d.listsRoot, uint64(id))
			}
			continue
		}
		if !e.snapDirty {
			continue
		}
		e.snapDirty = false
		if v := pmapGet(d.listsRoot, uint64(id)); v != nil {
			d.retireLSnap(v.(*listSnap))
		}
		d.listsRoot = d.pmapSet(d.listsRoot, uint64(id), d.buildListSnap(e))
	}
	d.dirtyL = d.dirtyL[:0]

	// The open-ARU set is small; rebuild it wholesale when it changed.
	if d.arusDirty {
		d.arusDirty = false
		d.retireTrie(d.arusRoot)
		d.arusRoot = nil
		for id, st := range d.arus {
			v := aruOpenVal
			if st.prepared {
				v = aruPreparedVal
			}
			d.arusRoot = d.pmapSet(d.arusRoot, uint64(id), v)
		}
	}

	s := d.takeSnap()
	d.epoch++
	d.stats.EpochsPublished.Add(1)
	s.epoch = d.epoch
	s.closed = d.closed
	s.blocks = d.blocksRoot
	s.lists = d.listsRoot
	s.arus = d.arusRoot
	s.nBlocks = len(d.blocks)
	s.variant = d.params.Variant
	s.readSem = d.params.ReadSemantics
	s.bs = d.params.Layout.BlockSize
	s.layout = d.params.Layout
	s.dev = d.dev
	s.devSh = d.devSh
	s.cache = d.cache
	s.cnt = &d.stats
	if d.builder != nil && d.curSeg >= 0 {
		s.curIdx = uint32(d.curSeg)
		s.curBld = d.builder
	} else {
		s.curIdx = segNone
		s.curBld = nil
	}
	s.sealed = s.sealed[:0]
	for idx, e := range d.sealedBySeg {
		s.sealed = append(s.sealed, snapSeal{idx: idx, img: e.img})
	}
	s.stats = d.stats.snapshot()
	s.next = nil
	s.ret = nil

	// The head swing is the epoch's linearization point: everything
	// above happened-before it (release store), and a reader that
	// revalidates against the new head sees all of it (acquire load).
	d.head.Store(s)
	if o := d.obs; o != nil {
		o.Emit(obs.EvEpochPublish, 0, s.epoch, uint64(s.nBlocks))
	}

	if old == nil {
		// First publish (construction): no reader can hold an older
		// epoch, so whatever the bootstrap retired recycles directly.
		d.drainRet(d.ret)
		d.snapOldest = s
		d.oldestEpoch.Store(s.epoch)
		return
	}
	// Retire the previous epoch: it owns every object this window
	// unshared, and purges once its readers (and all older ones) are
	// gone.
	old.ret = d.ret
	old.next = s
	d.ret = d.takeRet()
	d.purgeLocked()
}

// purgeLocked frees retired epochs whose refcounts have drained,
// strictly oldest first. A pinned epoch stops the sweep — younger
// retire-sets may hold objects the pinned snapshot still exposes — and
// counts a purge retry; the next publish (or explicit purge) tries
// again. Caller holds d.mu.
func (d *LLD) purgeLocked() {
	head := d.head.Load()
	for s := d.snapOldest; s != nil && s != head; {
		if s.ref.Load() != 0 {
			d.stats.PurgeRetries.Add(1)
			break
		}
		next := s.next
		d.freeSnapshot(s)
		d.snapOldest = next
		s = next
	}
	if d.snapOldest != nil {
		d.oldestEpoch.Store(d.snapOldest.epoch)
	}
}

// freeSnapshot drains a fully-retired epoch's retire-set into the
// engine free lists and pools the snapshot struct. ref is deliberately
// left alone (see the field comment). Caller holds d.mu.
func (d *LLD) freeSnapshot(s *snapshot) {
	if s.ret != nil {
		d.drainRet(s.ret)
		d.putRet(s.ret)
	}
	d.stats.SnapshotsPurged.Add(1)
	if o := d.obs; o != nil {
		o.Emit(obs.EvSnapPurge, 0, s.epoch, 0)
	}
	s.epoch = 0
	s.closed = false
	s.blocks, s.lists, s.arus = nil, nil, nil
	s.nBlocks = 0
	s.curIdx, s.curBld = segNone, nil
	for i := range s.sealed {
		s.sealed[i] = snapSeal{}
	}
	s.sealed = s.sealed[:0]
	s.dev, s.devSh = nil, nil
	s.cache, s.cnt = nil, nil
	s.stats = Stats{}
	s.next, s.ret = nil, nil
	if len(d.freeSnaps) < maxFreeSnaps {
		d.freeSnaps = append(d.freeSnaps, s)
	}
}

// drainRet recycles every object of a drained retire-set into the
// engine free lists, emptying the set in place. Caller holds d.mu.
func (d *LLD) drainRet(r *retireSet) {
	for i, n := range r.nodes {
		d.freeNode(n)
		r.nodes[i] = nil
	}
	r.nodes = r.nodes[:0]
	for i, b := range r.bufs {
		d.recycleBuf(b)
		r.bufs[i] = nil
	}
	r.bufs = r.bufs[:0]
	for i, sn := range r.bsnaps {
		d.recycleBSnap(sn)
		r.bsnaps[i] = nil
	}
	r.bsnaps = r.bsnaps[:0]
	for i, sn := range r.lsnaps {
		d.recycleLSnap(sn)
		r.lsnaps[i] = nil
	}
	r.lsnaps = r.lsnaps[:0]
	for i, b := range r.builders {
		d.recycleBuilder(b)
		r.builders[i] = nil
	}
	r.builders = r.builders[:0]
	for i, e := range r.seals {
		d.recycleSealed(e)
		r.seals[i] = nil
	}
	r.seals = r.seals[:0]
}

// retireTrie retires every node of a trie (the open-ARU table is
// rebuilt wholesale rather than path-copied).
func (d *LLD) retireTrie(n *pnode) {
	if n == nil {
		return
	}
	if !n.leaf {
		for _, c := range n.kids {
			d.retireTrie(c)
		}
	}
	d.retireNode(n)
}

// Retire-set pools. All caller-holds-d.mu.

func (d *LLD) takeRet() *retireSet {
	if n := len(d.spareRets); n > 0 {
		r := d.spareRets[n-1]
		d.spareRets[n-1] = nil
		d.spareRets = d.spareRets[:n-1]
		return r
	}
	return new(retireSet)
}

func (d *LLD) putRet(r *retireSet) {
	if len(d.spareRets) < maxFreeRets {
		d.spareRets = append(d.spareRets, r)
	}
}

func (d *LLD) takeSnap() *snapshot {
	if n := len(d.freeSnaps); n > 0 {
		s := d.freeSnaps[n-1]
		d.freeSnaps[n-1] = nil
		d.freeSnaps = d.freeSnaps[:n-1]
		return s
	}
	return new(snapshot)
}

func (d *LLD) takeBSnap() *blockSnap {
	if n := len(d.freeBSnaps); n > 0 {
		sn := d.freeBSnaps[n-1]
		d.freeBSnaps[n-1] = nil
		d.freeBSnaps = d.freeBSnaps[:n-1]
		return sn
	}
	return new(blockSnap)
}

func (d *LLD) retireBSnap(sn *blockSnap) {
	d.ret.bsnaps = append(d.ret.bsnaps, sn)
}

func (d *LLD) recycleBSnap(sn *blockSnap) {
	for i := range sn.vers {
		sn.vers[i] = blockVer{}
	}
	sn.vers = sn.vers[:0]
	sn.hasPersist = false
	sn.persist = seg.BlockRec{}
	if len(d.freeBSnaps) < maxFreeEntrySnaps {
		d.freeBSnaps = append(d.freeBSnaps, sn)
	}
}

func (d *LLD) takeLSnap() *listSnap {
	if n := len(d.freeLSnaps); n > 0 {
		sn := d.freeLSnaps[n-1]
		d.freeLSnaps[n-1] = nil
		d.freeLSnaps = d.freeLSnaps[:n-1]
		return sn
	}
	return new(listSnap)
}

func (d *LLD) retireLSnap(sn *listSnap) {
	d.ret.lsnaps = append(d.ret.lsnaps, sn)
}

func (d *LLD) recycleLSnap(sn *listSnap) {
	for i := range sn.vers {
		sn.vers[i] = listVer{}
	}
	sn.vers = sn.vers[:0]
	sn.hasPersist = false
	sn.persist = seg.ListRec{}
	if len(d.freeLSnaps) < maxFreeEntrySnaps {
		d.freeLSnaps = append(d.freeLSnaps, sn)
	}
}

const (
	maxFreeRets       = 8
	maxFreeSnaps      = 16
	maxFreeEntrySnaps = 2048
)

// ---------------------------------------------------------------------
// Snapshot read paths. These replicate the locked read paths exactly —
// same search order, same error strings — against the frozen tries.
// ---------------------------------------------------------------------

// viewFor resolves the state Reads under aru should consult in this
// epoch, mirroring modeFor + mode.viewID for the read-only case.
func (s *snapshot) viewFor(aru ARUID) (ARUID, error) {
	if aru == seg.SimpleARU {
		return seg.SimpleARU, nil
	}
	v := pmapGet(s.arus, uint64(aru))
	if v == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchARU, aru)
	}
	if v == aruPreparedVal {
		return 0, fmt.Errorf("%w: %d", ErrARUPrepared, aru)
	}
	if s.variant == VariantOld {
		return seg.SimpleARU, nil
	}
	return aru, nil
}

// readBlock reads b as seen from view under this epoch's configured
// read semantics; view must come from viewFor.
func (s *snapshot) readBlock(view ARUID, b BlockID, dst []byte) error {
	switch s.readSem {
	case ReadAnyShadow:
		return s.readAny(b, dst)
	case ReadCommitted:
		return s.readView(b, seg.SimpleARU, dst)
	default: // ReadOwnShadow
		return s.readView(b, view, dst)
	}
}

// readView reads b as the given state sees it (the paper's option 3):
// the view's shadow version, else the committed version, else the
// persistent one.
func (s *snapshot) readView(b BlockID, view ARUID, dst []byte) error {
	v := pmapGet(s.blocks, uint64(b))
	if v == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	sn := v.(*blockSnap)
	if view != seg.SimpleARU {
		if ver := sn.find(view); ver != nil {
			if ver.deleted {
				return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
			}
			return s.readVer(ver, dst)
		}
	}
	if ver := sn.find(seg.SimpleARU); ver != nil {
		if ver.deleted {
			return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
		}
		return s.readVer(ver, dst)
	}
	if sn.hasPersist {
		if sn.persist.HasData {
			return s.readPhys(sn.persist.Seg, sn.persist.Slot, dst)
		}
		zeroFill(dst)
		return nil
	}
	return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
}

// readAny reads the most recent version of b across every state (the
// paper's option 1, "any update is visible to all disk system clients
// right away"): the newest live alternative by write timestamp,
// falling back to persistent.
func (s *snapshot) readAny(b BlockID, dst []byte) error {
	v := pmapGet(s.blocks, uint64(b))
	if v == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	sn := v.(*blockSnap)
	var best *blockVer
	for i := range sn.vers {
		ver := &sn.vers[i]
		if ver.deleted {
			continue
		}
		if best == nil || ver.rec.TS > best.rec.TS {
			best = ver
		}
	}
	if best != nil {
		return s.readVer(best, dst)
	}
	if sn.hasPersist {
		if sn.persist.HasData {
			return s.readPhys(sn.persist.Seg, sn.persist.Slot, dst)
		}
		zeroFill(dst)
		return nil
	}
	return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
}

func (s *snapshot) readVer(ver *blockVer, dst []byte) error {
	if ver.data != nil {
		copy(dst, ver.data)
		return nil
	}
	if ver.rec.HasData {
		return s.readPhys(ver.rec.Seg, ver.rec.Slot, dst)
	}
	zeroFill(dst)
	return nil
}

// readPhys serves (segIdx, slot) lock-free: from the epoch's pinned
// open-segment builder, from a pinned sealed image, from the shared
// lock-free block cache, or from the device through the shared-read
// interface. Every step is mutex-free — the cache probe is one atomic
// load, the fill one atomic store of an immutable entry — so the path
// stays at zero mutex acquisitions while a cached read costs a memcpy
// instead of a device access. Filling from here is safe: the epoch
// pins segIdx against reuse, so the device bytes this fill publishes
// cannot be superseded until every epoch naming them has drained (and
// purgeSeg has run).
func (s *snapshot) readPhys(segIdx, slot uint32, dst []byte) error {
	if segIdx == s.curIdx && s.curBld != nil {
		copy(dst, s.curBld.BlockData(slot))
		return nil
	}
	for i := range s.sealed {
		if s.sealed[i].idx == segIdx {
			off := int(slot) * s.bs
			copy(dst, s.sealed[i].img[off:off+s.bs])
			return nil
		}
	}
	if s.cache != nil {
		if s.cache.get(segIdx, slot, dst) {
			s.cnt.CacheHits.Add(1)
			return nil
		}
		s.cnt.CacheMisses.Add(1)
	}
	off := s.layout.SegOff(int(segIdx)) + int64(slot)*int64(s.bs)
	var err error
	if s.devSh != nil {
		err = s.devSh.ReadAtShared(dst, off)
	} else {
		err = s.dev.ReadAt(dst, off)
	}
	if err != nil {
		return fmt.Errorf("lld: reading block at seg %d slot %d: %w", segIdx, slot, err)
	}
	if s.cache != nil {
		s.cache.put(segIdx, slot, dst)
	}
	return nil
}

// viewBlockRec / viewListRec are the snapshot analogues of
// LLD.viewBlock / LLD.viewList.
func (s *snapshot) viewBlockRec(b BlockID, view ARUID) (seg.BlockRec, bool) {
	v := pmapGet(s.blocks, uint64(b))
	if v == nil {
		return seg.BlockRec{}, false
	}
	sn := v.(*blockSnap)
	if view != seg.SimpleARU {
		if ver := sn.find(view); ver != nil {
			if ver.deleted {
				return seg.BlockRec{}, false
			}
			return ver.rec, true
		}
	}
	if ver := sn.find(seg.SimpleARU); ver != nil {
		if ver.deleted {
			return seg.BlockRec{}, false
		}
		return ver.rec, true
	}
	if sn.hasPersist {
		return sn.persist, true
	}
	return seg.BlockRec{}, false
}

func (s *snapshot) viewListRec(l ListID, view ARUID) (seg.ListRec, bool) {
	v := pmapGet(s.lists, uint64(l))
	if v == nil {
		return seg.ListRec{}, false
	}
	sn := v.(*listSnap)
	if view != seg.SimpleARU {
		if ver := sn.find(view); ver != nil {
			if ver.deleted {
				return seg.ListRec{}, false
			}
			return ver.rec, true
		}
	}
	if ver := sn.find(seg.SimpleARU); ver != nil {
		if ver.deleted {
			return seg.ListRec{}, false
		}
		return ver.rec, true
	}
	if sn.hasPersist {
		return sn.persist, true
	}
	return seg.ListRec{}, false
}

// listBlocks walks lst in view order, with the same chain-break and
// cycle diagnostics as the locked path (the cycle bound uses the
// block-map size frozen at publish).
func (s *snapshot) listBlocks(view ARUID, lst ListID) ([]BlockID, error) {
	lrec, ok := s.viewListRec(lst, view)
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	var out []BlockID
	for cur := lrec.First; cur != NilBlock; {
		out = append(out, cur)
		crec, ok := s.viewBlockRec(cur, view)
		if !ok {
			return nil, fmt.Errorf("lld: list %d chain broken at block %d", lst, cur)
		}
		if len(out) > s.nBlocks+1 {
			return nil, fmt.Errorf("lld: list %d contains a cycle", lst)
		}
		cur = crec.Succ
	}
	return out, nil
}

// listIDs returns the lists visible in view, ascending.
func (s *snapshot) listIDs(view ARUID) []ListID {
	var out []ListID
	pmapWalk(s.lists, func(key uint64, _ any) bool {
		id := ListID(key)
		if _, ok := s.viewListRec(id, view); ok {
			out = append(out, id)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func zeroFill(dst []byte) {
	for i := range dst {
		dst[i] = 0
	}
}

// ---------------------------------------------------------------------
// Exported snapshot handles and lifecycle controls.
// ---------------------------------------------------------------------

// liveSnapshotHandles counts outstanding exported Snapshot handles
// process-wide; the test suites fail on exit if it is non-zero (a
// leaked handle pins an epoch, and everything it retired, forever).
var liveSnapshotHandles atomic.Int64

// LiveSnapshots returns the number of exported snapshot handles not
// yet released, across every LLD in the process. Test hygiene hook.
func LiveSnapshots() int64 { return liveSnapshotHandles.Load() }

// ErrSnapshotStale reports a snapshot handle used after the engine
// it was acquired from was invalidated (crash simulation) or the
// handle was released.
var ErrSnapshotStale = errors.New("lld: snapshot is stale (released, or the disk crashed or closed)")

// Snapshot is a pinned read-only view of one published epoch. It stays
// consultable — same answers, byte for byte — no matter how many
// commits, checkpoints or cleaner passes run after it was acquired,
// until Release. Holding one defers reclamation of everything its
// epoch references, so release promptly.
//
// A Snapshot must not be consulted after the underlying engine crashes
// (crash simulation calls Invalidate) or closes: reads then fail with
// ErrSnapshotStale rather than returning data the reopened disk may
// have already diverged from.
type Snapshot struct {
	d        *LLD
	s        *snapshot
	released atomic.Bool
}

// AcquireSnapshot pins the current epoch and returns a handle to it.
func (d *LLD) AcquireSnapshot() (*Snapshot, error) {
	if d.invalid.Load() {
		return nil, ErrSnapshotStale
	}
	s := d.acquireSnap()
	if s == nil {
		return nil, ErrClosed
	}
	if s.closed {
		s.release()
		return nil, ErrClosed
	}
	d.openSnaps.Add(1)
	liveSnapshotHandles.Add(1)
	return &Snapshot{d: d, s: s}, nil
}

// OpenSnapshots returns the number of unreleased Snapshot handles on
// this engine.
func (d *LLD) OpenSnapshots() int64 { return d.openSnaps.Load() }

// Invalidate marks every outstanding snapshot handle stale. The crash
// simulators call it before tearing device state so a pre-crash
// snapshot cannot be consulted against a post-crash disk; it does not
// release the handles (their owners still must).
func (d *LLD) Invalidate() { d.invalid.Store(true) }

// Release unpins the epoch. Idempotent.
func (h *Snapshot) Release() {
	if h.released.CompareAndSwap(false, true) {
		h.s.release()
		h.d.openSnaps.Add(-1)
		liveSnapshotHandles.Add(-1)
	}
}

// Epoch returns the epoch number this handle pins.
func (h *Snapshot) Epoch() uint64 { return h.s.epoch }

func (h *Snapshot) check() error {
	if h.released.Load() || h.d.invalid.Load() {
		return ErrSnapshotStale
	}
	return nil
}

// Read reads block b as seen from aru's state in the pinned epoch.
func (h *Snapshot) Read(aru ARUID, b BlockID, dst []byte) error {
	if err := h.check(); err != nil {
		return err
	}
	if len(dst) != h.s.bs {
		return fmt.Errorf("%w: Read buffer is %d bytes, block size is %d", ErrBadParam, len(dst), h.s.bs)
	}
	view, err := h.s.viewFor(aru)
	if err != nil {
		return err
	}
	return h.s.readBlock(view, b, dst)
}

// ListBlocks returns the members of lst in the pinned epoch.
func (h *Snapshot) ListBlocks(aru ARUID, lst ListID) ([]BlockID, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	view, err := h.s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return h.s.listBlocks(view, lst)
}

// Lists returns the lists visible in the pinned epoch.
func (h *Snapshot) Lists(aru ARUID) ([]ListID, error) {
	if err := h.check(); err != nil {
		return nil, err
	}
	view, err := h.s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return h.s.listIDs(view), nil
}

// Stats returns the epoch's coherent counter snapshot (see LLD.Stats
// for which counters are epoch-coherent).
func (h *Snapshot) Stats() Stats {
	return h.s.stats
}
