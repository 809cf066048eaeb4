package crashenum

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aru/internal/core"
	"aru/internal/seg"
	"aru/internal/workload"
)

// checkerLayout is the small geometry the checker runs against: 1 KB
// blocks and 8 KB segments keep every engine mechanism (sealing,
// checkpoints, cleaning) firing constantly within a ~1 MB image, so
// each crash state is cheap to materialize and recover.
func checkerLayout() seg.Layout {
	return seg.Layout{
		BlockSize: 1024,
		SegBytes:  8192,
		NumSegs:   96,
		MaxBlocks: 2048,
		MaxLists:  512,
	}
}

// checkerParams returns the engine configuration for a checker run.
// inject selects a deliberate bug ("nosync", "untagged-replay",
// "ack-early", "torn-delta", "split-tail") used to validate that the
// oracle actually catches violations.
//
// CkptCompactEvery is pinned low so every run exercises the whole
// incremental-checkpoint life cycle — delta appends, chain replay, and
// base compaction — and the enumerator therefore crashes inside all of
// those phases (torn delta records, published-but-unsynced deltas,
// compaction mid-flight).
func checkerParams(inject string) (core.Params, error) {
	p := core.Params{
		Layout:           checkerLayout(),
		CheckpointEvery:  8,
		CkptCompactEvery: 3,
		CacheBlocks:      128,
	}
	switch inject {
	case "", "none":
	case "nosync":
		p.UnsafeNoSyncOnFlush = true
	case "untagged-replay":
		p.UnsafeUntaggedReplay = true
	case "ack-early":
		// The broken group-commit broker: batch waiters are woken
		// before dev.Sync runs, so Flush acknowledges durability on
		// unsynced segments.
		p.UnsafeAckBeforeSync = true
	case "torn-delta":
		// The broken publish barrier: a checkpoint record advances the
		// segment-reuse watermark without being synced first, so a
		// crash can lose the record while segments its predecessor's
		// replay window needs have already been overwritten. A smaller
		// log makes the wrap-around reuse that exposes the bug happen
		// within the workload.
		p.UnsafeTornDeltaPublish = true
		p.Layout.NumSegs = 18
	case "split-tail":
		// The broken recovery rule: the summary tail of a two-extent
		// segment is trusted without its data CRC, so a crash that
		// keeps the tail but drops or tears the data write replays
		// entries naming stale block contents.
		p.UnsafeSkipDataCRC = true
	default:
		return core.Params{}, fmt.Errorf("crashenum: unknown injection %q", inject)
	}
	return p, nil
}

// listFact is the committed snapshot of one list of a unit: the exact
// membership and contents the engine reported right after EndARU.
type listFact struct {
	id      core.ListID
	members []core.BlockID
	content map[core.BlockID][]byte
}

// unitFact records everything the oracle needs to know about one
// recovery unit of the workload.
type unitFact struct {
	idx       int
	committed bool       // EndARU returned (false: aborted)
	lists     []listFact // post-commit snapshot (committed units only)
	allLists  []core.ListID
	allBlocks []core.BlockID
	// durableEpoch is the recorder epoch of the first Flush/Checkpoint
	// return after the commit: at crash epochs ≥ durableEpoch the unit
	// is guaranteed durable. -1 if never covered by a flush.
	durableEpoch int
}

// genFact is one issued generation of a pool block.
type genFact struct {
	gen          int
	durableEpoch int // -1 until covered by a Flush/Checkpoint return
}

// poolFact tracks the simple-write generations of one pool block.
type poolFact struct {
	id   core.BlockID
	gens []genFact
}

// runResult is a completed workload execution plus its journal — the
// input to crash-state enumeration and the oracle.
type runResult struct {
	rec        *Recorder
	params     core.Params
	startEpoch int
	units      []*unitFact
	pool       []*poolFact
	poolList   core.ListID
}

func unitPayload(bsize, unit, serial int) []byte {
	p := make([]byte, bsize)
	binary.LittleEndian.PutUint32(p[0:], uint32(unit))
	binary.LittleEndian.PutUint32(p[4:], uint32(serial))
	for i := 8; i < bsize; i++ {
		p[i] = byte(unit*37 + serial*11 + i)
	}
	return p
}

func poolPayload(bsize, blk, gen int) []byte {
	p := make([]byte, bsize)
	binary.LittleEndian.PutUint32(p[0:], uint32(blk))
	binary.LittleEndian.PutUint32(p[4:], uint32(gen))
	for i := 8; i < bsize; i++ {
		p[i] = byte(blk*53 + gen*17 + i*3)
	}
	return p
}

// runMixed formats a logical disk on a fresh Recorder, executes the
// seeded mixed workload against it, and returns the facts the oracle
// checks each crash state against. The pool blocks are created and
// checkpointed before the recorded window starts, so enumeration
// begins from a durable base.
func runMixed(seed int64, wp workload.MixedParams, inject string) (*runResult, error) {
	params, err := checkerParams(inject)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder(params.Layout.DiskBytes())
	d, err := core.Format(rec, params)
	if err != nil {
		return nil, fmt.Errorf("crashenum: format: %w", err)
	}
	bsize := params.Layout.BlockSize

	res := &runResult{rec: rec, params: params}
	poolList, err := d.NewList(seg.SimpleARU)
	if err != nil {
		return nil, err
	}
	res.poolList = poolList
	nPool := wp.PoolBlocks
	if nPool == 0 {
		nPool = 6 // must match MixedParams default
	}
	for i := 0; i < nPool; i++ {
		b, err := d.NewBlock(seg.SimpleARU, poolList, core.NilBlock)
		if err != nil {
			return nil, err
		}
		if err := d.Write(seg.SimpleARU, b, poolPayload(bsize, i, 1)); err != nil {
			return nil, err
		}
		res.pool = append(res.pool, &poolFact{id: b})
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	if err := d.Checkpoint(); err != nil {
		return nil, err
	}
	res.startEpoch = rec.Epoch()
	for _, pb := range res.pool {
		pb.gens = []genFact{{gen: 1, durableEpoch: res.startEpoch}}
	}

	// markDurable records, at a Flush/Checkpoint return, the epoch at
	// which everything committed so far became guaranteed durable.
	markDurable := func() {
		e := rec.Epoch()
		for _, u := range res.units {
			if u.committed && u.durableEpoch < 0 {
				u.durableEpoch = e
			}
		}
		for _, pb := range res.pool {
			for i := range pb.gens {
				if pb.gens[i].durableEpoch < 0 {
					pb.gens[i].durableEpoch = e
				}
			}
		}
	}

	type liveUnit struct {
		aru    core.ARUID
		fact   *unitFact
		lists  []core.ListID
		live   []core.BlockID
		serial int
	}
	open := make(map[int]*liveUnit)

	snapshot := func(u *liveUnit) error {
		for _, id := range u.fact.allLists {
			members, err := d.ListBlocks(seg.SimpleARU, id)
			if err != nil {
				return fmt.Errorf("crashenum: snapshot list %d: %w", id, err)
			}
			lf := listFact{id: id, members: members, content: make(map[core.BlockID][]byte)}
			for _, b := range members {
				buf := make([]byte, bsize)
				if err := d.Read(seg.SimpleARU, b, buf); err != nil {
					return fmt.Errorf("crashenum: snapshot block %d: %w", b, err)
				}
				lf.content[b] = buf
			}
			u.fact.lists = append(u.fact.lists, lf)
		}
		return nil
	}

	script := workload.MixedScript(seed, wp)
	for i, op := range script {
		var err error
		switch op.Kind {
		case workload.MixedBegin:
			u := &liveUnit{fact: &unitFact{idx: op.Unit, durableEpoch: -1}}
			u.aru, err = d.BeginARU()
			open[op.Unit] = u
			res.units = append(res.units, u.fact)
		case workload.MixedNewList:
			u := open[op.Unit]
			var id core.ListID
			if id, err = d.NewList(u.aru); err == nil {
				u.lists = append(u.lists, id)
				u.fact.allLists = append(u.fact.allLists, id)
			}
		case workload.MixedNewBlock:
			u := open[op.Unit]
			lst := u.lists[op.Arg%len(u.lists)]
			var b core.BlockID
			if b, err = d.NewBlock(u.aru, lst, core.NilBlock); err == nil {
				u.live = append(u.live, b)
				u.fact.allBlocks = append(u.fact.allBlocks, b)
				u.serial++
				err = d.Write(u.aru, b, unitPayload(bsize, op.Unit, u.serial))
			}
		case workload.MixedRewrite:
			u := open[op.Unit]
			b := u.live[op.Arg%len(u.live)]
			u.serial++
			err = d.Write(u.aru, b, unitPayload(bsize, op.Unit, u.serial))
		case workload.MixedDelete:
			u := open[op.Unit]
			j := op.Arg % len(u.live)
			b := u.live[j]
			u.live = append(u.live[:j], u.live[j+1:]...)
			err = d.DeleteBlock(u.aru, b)
		case workload.MixedEnd:
			u := open[op.Unit]
			if err = d.EndARU(u.aru); err == nil {
				u.fact.committed = true
				err = snapshot(u)
			}
			delete(open, op.Unit)
		case workload.MixedAbort:
			u := open[op.Unit]
			err = d.AbortARU(u.aru)
			delete(open, op.Unit)
		case workload.MixedPoolWrite:
			j := op.Arg % len(res.pool)
			pb := res.pool[j]
			gen := len(pb.gens) + 1
			if err = d.Write(seg.SimpleARU, pb.id, poolPayload(bsize, j, gen)); err == nil {
				pb.gens = append(pb.gens, genFact{gen: gen, durableEpoch: -1})
			}
		case workload.MixedFlush:
			if err = d.Flush(); err == nil {
				markDurable()
			}
		case workload.MixedConcFlush:
			// A group-commit phase: op.Arg goroutines call Flush at
			// once and the broker may serve them all with one device
			// sync. The journal stays deterministic regardless of
			// scheduling: whichever caller leads the first batch seals
			// everything buffered so far (the script up to here ran
			// sequentially), and every later batch finds the builder
			// empty and the device already covered by that batch's
			// sync, so it performs no I/O at all.
			errs := make(chan error, op.Arg)
			for k := 0; k < op.Arg; k++ {
				go func() { errs <- d.Flush() }()
			}
			for k := 0; k < op.Arg; k++ {
				if ferr := <-errs; ferr != nil && err == nil {
					err = ferr
				}
			}
			if err == nil {
				markDurable()
			}
		case workload.MixedCheckpoint:
			if err = d.Checkpoint(); err == nil {
				markDurable()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("crashenum: script op %d (kind %d unit %d): %w", i, op.Kind, op.Unit, err)
		}
	}

	// Reader-during-recovery phase, pre-crash half: a snapshot pinned
	// before the crash must not be consultable afterwards. The crash
	// simulators invalidate the engine before tearing device state;
	// replaying that here proves a stale handle fails with
	// ErrSnapshotStale instead of answering from a world the reopened
	// disk may have diverged from.
	h, err := d.AcquireSnapshot()
	if err != nil {
		return nil, fmt.Errorf("crashenum: pre-crash snapshot: %w", err)
	}
	d.Invalidate()
	buf := make([]byte, bsize)
	if err := h.Read(seg.SimpleARU, res.pool[0].id, buf); !errors.Is(err, core.ErrSnapshotStale) {
		h.Release()
		return nil, fmt.Errorf("crashenum: pre-crash snapshot still consultable after invalidation (err=%v)", err)
	}
	if _, err := h.ListBlocks(seg.SimpleARU, res.poolList); !errors.Is(err, core.ErrSnapshotStale) {
		h.Release()
		return nil, fmt.Errorf("crashenum: pre-crash snapshot list walk survived invalidation (err=%v)", err)
	}
	h.Release()
	return res, nil
}

func blocksEqual(a, b []core.BlockID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
