package core

import (
	"fmt"
	"sort"

	"aru/internal/seg"
)

// CheckDisk runs the disk consistency check of paper §3.3: blocks that
// were allocated inside an ARU that never committed remain allocated
// (allocation always happens in the committed state) but sit on no
// list; the check frees them. It returns the number of blocks freed.
//
// Blocks that an *open* ARU has allocated but not yet committed onto a
// list are skipped, so CheckDisk is safe to run at any time. Open on a
// recovered disk runs it automatically unless Params.NoAutoCheck is
// set.
func (d *LLD) CheckDisk() (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.publishLocked()
	if d.closed {
		return 0, ErrClosed
	}
	return d.checkLocked()
}

func (d *LLD) checkLocked() (int, error) {
	// Blocks an open ARU intends to insert are not leaked.
	claimed := make(map[BlockID]bool)
	for _, st := range d.arus {
		for _, op := range st.linkLog {
			if op.kind == opInsert {
				claimed[op.block] = true
			}
		}
		for ab := st.shadowBlocks; ab != nil; ab = ab.nextState {
			claimed[ab.id] = true
		}
	}
	var leaked []BlockID
	for id := range d.blocks {
		if claimed[id] {
			continue
		}
		if rec, ok := d.viewBlock(id, seg.SimpleARU); ok && rec.List == NilList {
			leaked = append(leaked, id)
		}
	}
	sort.Slice(leaked, func(i, j int) bool { return leaked[i] < leaked[j] })
	return d.freeLeaked(leaked)
}

// freeLeaked frees each block of ids that sits on no list in the
// committed state — a leaked allocation (paper §3.3) — and returns how
// many it freed. Callers pass only blocks no open ARU claims.
func (d *LLD) freeLeaked(ids []BlockID) (int, error) {
	m := mode{view: seg.SimpleARU, tag: seg.SimpleARU}
	freed := 0
	for _, id := range ids {
		rec, ok := d.viewBlock(id, seg.SimpleARU)
		if !ok || rec.List != NilList {
			continue // freed already (deletion pending promotion), or on a list
		}
		if err := d.deleteBlockIn(m, id, true); err != nil {
			d.stats.LeakedBlocksFreed.Add(int64(freed))
			return freed, fmt.Errorf("lld: consistency sweep of block %d: %w", id, err)
		}
		freed++
	}
	d.stats.LeakedBlocksFreed.Add(int64(freed))
	return freed, nil
}

// FreeSegments returns the number of currently reusable log segments.
func (d *LLD) FreeSegments() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.reusableCount()
}

// ListBlocks returns the members of list lst, in order, as seen from
// the state of aru (SimpleARU for the committed view). Lock-free: it
// walks the current published epoch (snapshot.go).
func (d *LLD) ListBlocks(aru ARUID, lst ListID) ([]BlockID, error) {
	s := d.acquireSnap()
	if s == nil {
		return nil, ErrClosed
	}
	defer s.release()
	if s.closed {
		return nil, ErrClosed
	}
	view, err := s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return s.listBlocks(view, lst)
}

// Lists returns the identifiers of all lists visible in the state of
// aru, in ascending order. Lock-free against the current epoch.
func (d *LLD) Lists(aru ARUID) ([]ListID, error) {
	s := d.acquireSnap()
	if s == nil {
		return nil, ErrClosed
	}
	defer s.release()
	if s.closed {
		return nil, ErrClosed
	}
	view, err := s.viewFor(aru)
	if err != nil {
		return nil, err
	}
	return s.listIDs(view), nil
}

// BlockInfo describes one block version for inspection.
type BlockInfo struct {
	ID      BlockID
	List    ListID
	Succ    BlockID
	HasData bool
	TS      uint64
}

// StatBlock returns the effective record of a block in the state of
// aru. Lock-free against the current epoch.
func (d *LLD) StatBlock(aru ARUID, b BlockID) (BlockInfo, error) {
	s := d.acquireSnap()
	if s == nil {
		return BlockInfo{}, ErrClosed
	}
	defer s.release()
	if s.closed {
		return BlockInfo{}, ErrClosed
	}
	view, err := s.viewFor(aru)
	if err != nil {
		return BlockInfo{}, err
	}
	rec, ok := s.viewBlockRec(b, view)
	if !ok {
		return BlockInfo{}, fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	return BlockInfo{ID: b, List: rec.List, Succ: rec.Succ, HasData: rec.HasData, TS: rec.TS}, nil
}

// VersionCount returns the number of live versions of block b across
// all states (persistent + committed + one per ARU shadow). Exposed for
// the n+2 bound invariant tests.
func (d *LLD) VersionCount(b BlockID) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.blocks[b]
	if !ok {
		return 0
	}
	return e.versions()
}

// VerifyInternal cross-checks in-memory invariants: list chains are
// acyclic and well-terminated in every state, Last pointers are
// correct, per-segment live counts match the block map, and pins are
// non-negative. It is exported for tests and the fsck tool.
func (d *LLD) VerifyInternal() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	views := []ARUID{seg.SimpleARU}
	if d.params.Variant == VariantNew {
		for id := range d.arus {
			views = append(views, id)
		}
	}
	for _, v := range views {
		for id := range d.lists {
			lrec, ok := d.viewList(id, v)
			if !ok {
				continue
			}
			var last BlockID
			n := 0
			for cur := lrec.First; cur != NilBlock; {
				crec, ok := d.viewBlock(cur, v)
				if !ok {
					return fmt.Errorf("lld: verify: view %d list %d references missing block %d", v, id, cur)
				}
				if crec.List != id {
					return fmt.Errorf("lld: verify: view %d block %d on list %d claims list %d", v, cur, id, crec.List)
				}
				last = cur
				cur = crec.Succ
				if n++; n > len(d.blocks)+1 {
					return fmt.Errorf("lld: verify: view %d list %d has a cycle", v, id)
				}
			}
			if lrec.Last != last {
				return fmt.Errorf("lld: verify: view %d list %d Last=%d, chain ends at %d", v, id, lrec.Last, last)
			}
		}
	}
	live := make([]int32, d.params.Layout.NumSegs)
	for _, e := range d.blocks {
		if e.persist != nil && e.persist.HasData {
			live[e.persist.Seg]++
		}
	}
	for s := range live {
		if live[s] != d.segLive[s] {
			return fmt.Errorf("lld: verify: segment %d live count %d, block map says %d", s, d.segLive[s], live[s])
		}
		if d.segPins[s] < 0 {
			return fmt.Errorf("lld: verify: segment %d has negative pin count %d", s, d.segPins[s])
		}
	}
	return nil
}

// SegmentInfo describes one log segment's runtime accounting.
type SegmentInfo struct {
	Index    int
	Seq      uint64 // log sequence number (0 = never written)
	Live     int32  // live persistent blocks
	Pins     int32  // alternative records holding data here
	Current  bool   // the open segment being filled
	Reusable bool
}

// Segments returns the runtime accounting of every log segment — the
// utilization view the cleaner decides on.
func (d *LLD) Segments() []SegmentInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]SegmentInfo, d.params.Layout.NumSegs)
	for s := range out {
		out[s] = SegmentInfo{
			Index:    s,
			Seq:      d.segSeq[s],
			Live:     d.segLive[s],
			Pins:     d.segPins[s],
			Current:  s == d.curSeg,
			Reusable: d.segReusable(s),
		}
	}
	return out
}
