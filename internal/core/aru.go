package core

import (
	"fmt"
	"time"

	"aru/internal/obs"
	"aru/internal/seg"
)

// mode captures how one LD operation executes, per the paper's version
// semantics (§3.3):
//
//   - simple operations run in the committed state and emit summary
//     entries tagged with ARU 0 (committed immediately);
//   - operations inside a concurrent ARU run in that ARU's shadow
//     state; data writes emit entries tagged with the ARU, list
//     operations emit nothing and are recorded in the list-operation
//     log instead;
//   - operations replayed at commit time — and all in-ARU operations of
//     the sequential variant — run in the committed state, emit entries
//     tagged with the ARU, and gate the records they touch so that the
//     committed→persistent transition waits for the commit record.
type mode struct {
	view    ARUID     // state for lookups/mutations (SimpleARU = committed)
	st      *aruState // non-nil: shadow-state execution for this ARU
	tag     ARUID     // ARU tag on emitted summary entries
	tracked *aruState // non-nil: gate touched committed records until commit
	silent  bool      // suppress summary entries (2PC commit replay: the
	// entries were already logged, tagged, at prepare time)
}

// modeFor resolves the execution mode of an operation issued under aru
// (SimpleARU for a simple operation). The caller must hold d.mu.
func (d *LLD) modeFor(aru ARUID) (mode, error) {
	if aru == seg.SimpleARU {
		return mode{view: seg.SimpleARU, tag: seg.SimpleARU}, nil
	}
	st, ok := d.arus[aru]
	if !ok {
		return mode{}, fmt.Errorf("%w: %d", ErrNoSuchARU, aru)
	}
	if st.prepared {
		return mode{}, fmt.Errorf("%w: %d", ErrARUPrepared, aru)
	}
	if d.params.Variant == VariantOld {
		return mode{view: seg.SimpleARU, tag: aru, tracked: st}, nil
	}
	return mode{view: aru, st: st, tag: aru}, nil
}

// viewID returns the state Reads under aru should resolve against.
func (m mode) viewID() ARUID { return m.view }

// touchBlock applies the commit-timestamp policy of the mode to a
// committed record just modified at time ts. Shadow records are left
// alone (their commit timestamp is assigned when they merge).
func (m mode) touchBlock(cb *altBlock, ts uint64) {
	if m.st != nil {
		return
	}
	if m.tracked != nil {
		if cb.commitTS != gateOpen {
			m.tracked.touched = append(m.tracked.touched, cb)
			cb.commitTS = gateOpen
		}
		return
	}
	cb.commitTS = ts
}

// touchList is the list analogue of touchBlock.
func (m mode) touchList(cl *altList, ts uint64) {
	if m.st != nil {
		return
	}
	if m.tracked != nil {
		if cl.commitTS != gateOpen {
			m.tracked.touchedLists = append(m.tracked.touchedLists, cl)
			cl.commitTS = gateOpen
		}
		return
	}
	cl.commitTS = ts
}

// BeginARU opens a new atomic recovery unit and returns its identifier.
// On the sequential variant at most one ARU may be open at a time.
func (d *LLD) BeginARU() (ARUID, error) {
	d.mu.Lock()
	d.awaitCheckpointLocked()
	defer d.mu.Unlock()
	defer d.publishLocked()
	if d.closed {
		return 0, ErrClosed
	}
	if d.params.Variant == VariantOld && len(d.arus) != 0 {
		return 0, ErrARUActive
	}
	id := d.nextARU
	d.nextARU++
	d.arus[id] = d.getState(id)
	d.arusDirty = true
	d.stats.ARUsBegun.Add(1)
	d.obs.Emit(obs.EvARUBegin, uint64(id), 0, 0)
	return id, nil
}

// EndARU commits an atomic recovery unit: every operation issued under
// it becomes part of the committed state as one indivisible unit, and
// will become persistent together once the commit record reaches disk.
// EndARU provides atomicity, not durability: call Flush to force
// persistence.
func (d *LLD) EndARU(aru ARUID) error {
	return d.EndARUTraced(aru, obs.SpanContext{})
}

// EndARUTraced is EndARU carrying trace context (DESIGN.md §13): the
// commit runs under an engine-commit span parented on sc (e.g. the
// network server's op span), and the commit record's eventual durable
// ack — wherever the covering sync happens — joins the same trace.
// With span recording enabled but sc zero (a local, untraced caller)
// the commit roots a fresh trace, so batch causality is observable
// even without a network client. With spans disabled this is exactly
// EndARU.
func (d *LLD) EndARUTraced(aru ARUID, sc obs.SpanContext) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.publishLocked()
	if d.closed {
		return ErrClosed
	}
	st, ok := d.arus[aru]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchARU, aru)
	}
	if st.prepared {
		return fmt.Errorf("%w: %d (use CommitPrepared or AbortARU)", ErrARUPrepared, aru)
	}
	var (
		t0     time.Duration
		spanID uint64
	)
	if d.obs.SpanEnabled() {
		t0 = d.obs.Now()
		spanID = d.obs.NextID()
		if sc.Trace == 0 {
			sc.Trace = d.obs.NextID()
		}
	} else {
		sc = obs.SpanContext{}
	}
	replayed := uint64(len(st.linkLog))
	var err error
	if d.params.Variant == VariantOld {
		err = d.endARUOld(aru, st, sc.Trace, spanID)
	} else {
		err = d.endARUNew(aru, st, sc.Trace, spanID, false)
	}
	if spanID != 0 && err == nil {
		d.obs.EmitSpan(obs.Span{
			Trace: sc.Trace, ID: spanID, Parent: sc.Span,
			Kind: obs.SpanEngineCommit, Start: t0, Dur: d.obs.Now() - t0,
			ARU: uint64(aru), Arg1: replayed,
		})
	}
	return err
}

// endARUOld commits a sequential-variant ARU: the operations already
// executed in the committed state, so committing only logs the commit
// record and releases the promotion gate. trace/span carry the
// engine-commit span for the durable ack (zero when untraced).
func (d *LLD) endARUOld(aru ARUID, st *aruState, trace, span uint64) error {
	if err := d.ensureRoom(0, 1); err != nil {
		return err
	}
	cts := d.tick()
	d.pendingCommits = append(d.pendingCommits, seg.Entry{Kind: seg.KindCommit, ARU: aru, TS: cts})
	d.stampCommit(aru, trace, span)
	d.ungate(st, cts)
	delete(d.arus, aru)
	d.arusDirty = true
	d.putState(st)
	d.stats.ARUsCommitted.Add(1)
	d.obs.Emit(obs.EvARUCommit, uint64(aru), 0, 0)
	// The commit is fully applied: maintenance below may publish
	// intermediate epochs (cleaner batches) without exposing a
	// half-merged state.
	d.pubSafe = true
	d.maybeMaintain()
	d.pubSafe = false
	return nil
}

// endARUNew commits a concurrent-variant ARU (paper §4): shadow data
// versions merge into the committed state, the list-operation log is
// re-executed against the committed state (now emitting the real link
// records), and finally the commit record is generated. All committed
// records touched stay gated until the commit record is logged, so a
// segment write in the middle of the merge can never promote a partial
// commit. trace/span carry the engine-commit span for the durable ack
// (zero when untraced).
//
// With silent set the merge runs without emitting summary entries: the
// ARU was prepared (PrepareARU already materialized its data and logged
// its list operations, tagged with the ARU), so the only new log record
// is the commit record itself — recovery replays the prepare-time
// entries at the commit record's timestamp, exactly mirroring what the
// silent replay does live.
func (d *LLD) endARUNew(aru ARUID, st *aruState, trace, span uint64, silent bool) error {
	gate := mode{view: seg.SimpleARU, tag: aru, tracked: st, silent: silent}
	if d.params.UnsafeUntaggedReplay {
		// Fault injection for the crash checker: drop the ARU tag so
		// recovery replays these entries without waiting for the
		// commit record.
		gate.tag = seg.SimpleARU
	}

	// Merge shadow block data into the committed state: the shadow
	// version replaces the current committed version, which is
	// discarded (paper §3.1). Structure fields (successor, list
	// membership) are recomputed by the log replay below; only the
	// contents move here. Data still in memory moves buffer-to-buffer
	// (no log traffic at all); data already materialized hands over its
	// physical location.
	for ab := st.shadowBlocks; ab != nil; ab = ab.nextState {
		if ab.deleted || !ab.hasContent() {
			continue
		}
		if err := d.ensureRoom(1, 1); err != nil {
			return err
		}
		cb, ok := d.writableBlock(ab.id, seg.SimpleARU, nil)
		if !ok {
			// The block vanished from the committed state (deleted by
			// a racing client); the paper leaves such races to client
			// locking. Drop the data.
			d.stats.MergeFallbacks.Add(1)
			continue
		}
		if ab.data != nil {
			buf := ab.data
			ab.data = nil // shadow buffers are not counted; move directly
			d.setBlockData(cb, buf, aru, true)
		} else {
			d.stashPrev(cb) // the inherited location supersedes a pending buffer
			d.setBlockPhys(cb, ab.rec.Seg, ab.rec.Slot, aru)
		}
		cb.rec.TS = ab.rec.TS
		gate.touchBlock(cb, 0)
	}

	// Re-execute the list-operation log in the committed state.
	for _, op := range st.linkLog {
		d.stats.ListOpsReplayed.Add(1)
		var err error
		switch op.kind {
		case opInsert:
			err = d.insertIn(gate, op.list, op.block, op.pred, false)
		case opDeleteBlock:
			err = d.deleteBlockIn(gate, op.block, false)
		case opDeleteList:
			err = d.deleteListIn(gate, op.list, false)
		case opUnlinkOnly:
			rec, ok := d.viewBlock(op.block, seg.SimpleARU)
			if !ok || rec.List == NilList {
				d.stats.MergeFallbacks.Add(1)
			} else {
				err = d.unlinkIn(gate, rec.List, op.block)
			}
		default:
			err = fmt.Errorf("lld: unknown list-operation kind %d", op.kind)
		}
		if err != nil {
			return fmt.Errorf("lld: replaying list-operation log of ARU %d: %w", aru, err)
		}
	}

	// The commit record makes the whole unit take effect at recovery.
	// It is queued and emitted at seal time, after any still-buffered
	// data of this unit has materialized, so the unit can never be
	// split across a segment boundary with its commit on the durable
	// side and its data on the lost side.
	if err := d.ensureRoom(0, 1); err != nil {
		return err
	}
	replayed := uint64(len(st.linkLog))
	cts := d.tick()
	d.pendingCommits = append(d.pendingCommits, seg.Entry{Kind: seg.KindCommit, ARU: aru, TS: cts})
	d.stampCommit(aru, trace, span)
	d.ungate(st, cts)
	d.discardShadow(st)
	delete(d.arus, aru)
	d.arusDirty = true
	d.putState(st)
	d.stats.ARUsCommitted.Add(1)
	d.obs.Emit(obs.EvARUCommit, uint64(aru), replayed, 0)
	d.pubSafe = true
	d.maybeMaintain()
	d.pubSafe = false
	return nil
}

// ungate assigns the commit timestamp to every committed record the ARU
// touched, making them eligible for promotion once the commit record is
// durable. Block records also take the commit timestamp as their write
// time, matching what recovery reconstructs (buffered operations apply
// at the commit record's timestamp).
func (d *LLD) ungate(st *aruState, cts uint64) {
	for _, cb := range st.touched {
		if e, ok := d.blocks[cb.id]; ok {
			d.snapDirtyBlock(e, cb.id) // rec.TS changes below
		}
		cb.commitTS = cts
		cb.wtag = seg.SimpleARU // future materialization is committed
		// The stashed pre-unit version is no longer needed: this
		// unit's commit record is queued and will share the next
		// sealed segment with the overwriting data.
		d.dropPrevData(cb)
		if !cb.deleted {
			cb.rec.TS = cts
		}
	}
	for _, cl := range st.touchedLists {
		if e, ok := d.lists[cl.id]; ok {
			d.snapDirtyList(e, cl.id)
		}
		cl.commitTS = cts
	}
	// Keep the slice capacity for the state's next life (pool.go);
	// zero the pointer elements so retired records are not retained.
	for i := range st.touched {
		st.touched[i] = nil
	}
	for i := range st.touchedLists {
		st.touchedLists[i] = nil
	}
	st.touched = st.touched[:0]
	st.touchedLists = st.touchedLists[:0]
}

// discardShadow drops every shadow record of the ARU, releasing pins
// and recycling the records (the same-state link is saved before each
// record is freed).
func (d *LLD) discardShadow(st *aruState) {
	for ab := st.shadowBlocks; ab != nil; {
		next := ab.nextState
		e := d.blocks[ab.id]
		d.dropAltBlock(e, ab)
		if e.empty() {
			delete(d.blocks, ab.id)
		}
		d.freeAltBlock(ab)
		ab = next
	}
	st.shadowBlocks = nil
	for al := st.shadowLists; al != nil; {
		next := al.nextState
		e := d.lists[al.id]
		d.dropAltList(e, al)
		if e.empty() {
			delete(d.lists, al.id)
		}
		d.freeAltList(al)
		al = next
	}
	st.shadowLists = nil
	for i := range st.linkLog {
		st.linkLog[i].members = nil // don't retain snapshots past truncation
	}
	st.linkLog = st.linkLog[:0]
}

// AbortARU discards an open ARU: its shadow state is dropped and none
// of its operations ever reach the committed state. Identifiers it
// allocated remain allocated (allocation always happens in the
// committed state) until a consistency check frees them, exactly as for
// an ARU interrupted by a crash (paper §3.3): CheckDisk, the sweep at
// mount, or the sweep of the unit's own blocks that maintenance runs
// once no unit is open (maybeMaintain). The sequential variant cannot
// abort, since it applies operations in place.
func (d *LLD) AbortARU(aru ARUID) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.publishLocked()
	if d.closed {
		return ErrClosed
	}
	st, ok := d.arus[aru]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchARU, aru)
	}
	if d.params.Variant == VariantOld {
		return ErrAbortUnsupported
	}
	ts := d.tick()
	if err := d.appendEntry(seg.Entry{Kind: seg.KindAbort, ARU: aru, TS: ts}); err != nil {
		return err
	}
	for _, op := range st.linkLog {
		if op.kind == opInsert {
			d.abortAllocs = append(d.abortAllocs, op.block)
		}
	}
	d.discardShadow(st)
	delete(d.arus, aru)
	d.arusDirty = true
	d.putState(st)
	d.stats.ARUsAborted.Add(1)
	d.obs.Emit(obs.EvARUAbort, uint64(aru), 0, 0)
	return nil
}

// checkpointWait bounds how long BeginARU holds a new unit back for
// the open ones to finish when the log is nearly full. A bound, not a
// condition, because the caller may itself hold one of the open units.
const checkpointWait = 20 * time.Millisecond

// awaitCheckpointLocked lets a due checkpoint run before a new unit
// opens once fewer than CleanerLowWater segments are free. Checkpoints
// and the cleaner need a moment with no unit open and no batch in
// flight; a steady stream of overlapping units, each sealed by frequent
// flushes, may never leave one, and then no segment is ever reused and
// the disk fills. So the new unit waits, up to checkpointWait, for the
// open ones to finish, rides out the in-flight batch, and maintains.
// Called and returns with d.mu held.
func (d *LLD) awaitCheckpointLocked() {
	due := func() bool {
		return !d.closed && d.params.CheckpointEvery > 0 &&
			d.segsSinceC >= d.params.CheckpointEvery && d.freeCache < d.params.CleanerLowWater
	}
	if !due() {
		return
	}
	for deadline := time.Now().Add(checkpointWait); len(d.arus) != 0 && time.Now().Before(deadline); {
		d.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
		d.mu.Lock()
	}
	if len(d.arus) != 0 || !due() {
		return
	}
	d.mu.Unlock()
	d.lockDrained()
	if len(d.arus) == 0 && due() {
		d.pubSafe = true
		d.maybeMaintain()
		d.pubSafe = false
	}
}

// ActiveARUs returns the number of currently open ARUs.
func (d *LLD) ActiveARUs() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.arus)
}
