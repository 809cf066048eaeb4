package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"aru/internal/disk"
	"aru/internal/seg"
)

// TestInsertPositions covers NewBlock's placement semantics: at the
// head, after each possible predecessor, and interleaved.
func TestInsertPositions(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)

	// Build [c b a] by repeated head insertion.
	a, _ := d.NewBlock(0, lst, NilBlock)
	b, _ := d.NewBlock(0, lst, NilBlock)
	c, _ := d.NewBlock(0, lst, NilBlock)
	want := []BlockID{c, b, a}
	got, _ := d.ListBlocks(0, lst)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("head inserts: %v, want %v", got, want)
	}

	// Insert after the middle and after the tail.
	mid, _ := d.NewBlock(0, lst, b)
	tail, _ := d.NewBlock(0, lst, a)
	want = []BlockID{c, b, mid, a, tail}
	got, _ = d.ListBlocks(0, lst)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("positioned inserts: %v, want %v", got, want)
	}

	// Last pointer must track the real tail (checked by the verifier).
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	// Deleting the tail moves Last back.
	if err := d.DeleteBlock(0, tail); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	// And re-inserting after the new tail works.
	if _, err := d.NewBlock(0, lst, a); err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestListsAndStatBlock covers the inspection API.
func TestListsAndStatBlock(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	l1, _ := d.NewList(0)
	l2, _ := d.NewList(0)
	b, _ := d.NewBlock(0, l1, NilBlock)

	lists, err := d.Lists(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lists) != 2 || lists[0] != l1 || lists[1] != l2 {
		t.Fatalf("Lists = %v", lists)
	}
	info, err := d.StatBlock(0, b)
	if err != nil {
		t.Fatal(err)
	}
	if info.List != l1 || info.Succ != NilBlock || info.HasData {
		t.Fatalf("StatBlock = %+v", info)
	}
	if err := d.Write(0, b, fill(d, 1)); err != nil {
		t.Fatal(err)
	}
	// Within an ARU the stat reflects the shadow state.
	aru, _ := d.BeginARU()
	if err := d.DeleteBlock(aru, b); err != nil {
		t.Fatal(err)
	}
	if _, err := d.StatBlock(aru, b); !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("shadow-deleted block visible to StatBlock: %v", err)
	}
	if _, err := d.StatBlock(0, b); err != nil {
		t.Fatalf("committed view lost the block: %v", err)
	}
	if err := d.AbortARU(aru); err != nil {
		t.Fatal(err)
	}
}

// TestReadPathPhysicalSources: the lock-free read path serves block
// data from the published epoch — a buffered committed version costs no
// device I/O; once the data is materialized and flushed it comes from a
// pinned segment image or the device, byte for byte. (The block cache
// no longer fronts Read: an LRU mutates on every hit, and the MVCC
// read path does zero shared-state writes besides the epoch refcount.)
func TestReadPathPhysicalSources(t *testing.T) {
	p := Params{Layout: testLayout(64), CacheBlocks: 64}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b, fill(d, 0x42)); err != nil {
		t.Fatal(err)
	}
	reads := dev.Stats().Reads
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().Reads != reads {
		t.Fatalf("read of a buffered committed version hit the device (%d -> %d)",
			reads, dev.Stats().Reads)
	}
	if err := d.Flush(); err != nil { // materializes the buffer into the log
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		buf[0] = 0
		if err := d.Read(0, b, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x42 {
			t.Fatalf("materialized contents wrong: %#x", buf[0])
		}
	}
}

// TestLeakSweepSkipsOpenARUs: CheckDisk must not free blocks that an
// open ARU has allocated and intends to insert.
func TestLeakSweepSkipsOpenARUs(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)

	a, _ := d.BeginARU()
	pending, err := d.NewBlock(a, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	// An actually leaked block: allocated by an aborted ARU.
	a2, _ := d.BeginARU()
	leaked, err := d.NewBlock(a2, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AbortARU(a2); err != nil {
		t.Fatal(err)
	}

	freed, err := d.CheckDisk()
	if err != nil {
		t.Fatal(err)
	}
	if freed != 1 {
		t.Fatalf("sweep freed %d, want exactly the aborted ARU's block", freed)
	}
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, leaked, buf); !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("leaked block survived the sweep: %v", err)
	}
	// The open ARU's block is intact and commits normally.
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.ListBlocks(0, lst)
	if len(blocks) != 1 || blocks[0] != pending {
		t.Fatalf("pending block damaged by sweep: %v", blocks)
	}
}

// TestStatsAccounting sanity-checks the counters the harness builds its
// cost model on.
func TestStatsAccounting(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	for i := 0; i < 3; i++ {
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	a, _ := d.BeginARU()
	if err := d.Write(a, b, fill(d, 9)); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != 4 || st.Reads != 1 || st.NewBlocks != 1 || st.NewLists != 1 {
		t.Fatalf("op counters: %+v", st)
	}
	if st.CoalescedWrites != 0 {
		// In-place coalescing was removed with the MVCC read path: a
		// published epoch may share the buffer, so every Write installs
		// a fresh one.
		t.Fatalf("writes coalesced in place: %+v", st.CoalescedWrites)
	}
	if st.ARUsBegun != 1 || st.ARUsCommitted != 1 {
		t.Fatalf("ARU counters: begun %d committed %d", st.ARUsBegun, st.ARUsCommitted)
	}
	if st.ShadowCreated == 0 {
		t.Fatal("shadow write not counted")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.BlocksMaterialized == 0 || st.SegmentsWritten == 0 {
		t.Fatalf("flush accounting: %+v", st)
	}
	// After flush with no ARUs open, no alternative records remain.
	if st.AltRecords != 0 || st.ShadowRecords != 0 {
		t.Fatalf("dangling alternative records after flush: alt=%d shadow=%d",
			st.AltRecords, st.ShadowRecords)
	}
}

// TestFreeSegments tracks the reusable count through fill and flush.
func TestFreeSegments(t *testing.T) {
	p := Params{Layout: testLayout(32)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	before := d.FreeSegments()
	if before < 30 {
		t.Fatalf("fresh disk has %d free segments", before)
	}
	lst, _ := d.NewList(0)
	pred := NilBlock
	for i := 0; i < 20; i++ {
		b, err := d.NewBlock(0, lst, pred)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
		pred = b
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := d.FreeSegments(); after >= before {
		t.Fatalf("free segments did not drop: %d -> %d", before, after)
	}
}

// TestPredecessorSearchCost verifies the cost the paper measures: the
// further from the head a block sits, the more steps its removal takes.
func TestPredecessorSearchCost(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	var blocks []BlockID
	pred := NilBlock
	for i := 0; i < 10; i++ {
		b, _ := d.NewBlock(0, lst, pred)
		blocks = append(blocks, b)
		pred = b
	}
	steps := func() int64 { return d.Stats().PredecessorSearchSteps }

	s0 := steps()
	if err := d.DeleteBlock(0, blocks[0]); err != nil { // head: no search
		t.Fatal(err)
	}
	headCost := steps() - s0
	s1 := steps()
	if err := d.DeleteBlock(0, blocks[9]); err != nil { // tail: longest search
		t.Fatal(err)
	}
	tailCost := steps() - s1
	if headCost != 0 {
		t.Fatalf("head removal walked %d steps", headCost)
	}
	if tailCost < 7 {
		t.Fatalf("tail removal walked only %d steps", tailCost)
	}
}

// TestPerIDChainCollapse: the same-identifier chain never grows beyond
// one record per state even under heavy churn on one block.
func TestPerIDChainCollapse(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	for round := 0; round < 10; round++ {
		a, _ := d.BeginARU()
		for i := 0; i < 5; i++ {
			if err := d.Write(a, b, fill(d, byte(round*16+i))); err != nil {
				t.Fatal(err)
			}
		}
		if n := d.VersionCount(b); n > 3 {
			t.Fatalf("round %d: %d versions of one block with one ARU", round, n)
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
		if round%3 == 2 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, fill(d, 9*16+4)) {
		t.Fatalf("final contents %#x", buf[0])
	}
}

// TestSimpleARUConstant double-checks the sentinel is what clients
// outside the package use.
func TestSimpleARUConstant(t *testing.T) {
	if seg.SimpleARU != 0 {
		t.Fatalf("SimpleARU = %d", seg.SimpleARU)
	}
}

// TestAccessorsAndStrings covers the small inspection surface.
func TestAccessorsAndStrings(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	if got := d.Params().CacheBlocks; got == 0 {
		t.Fatalf("Params did not apply defaults: %+v", d.Params())
	}
	if d.ActiveARUs() != 0 {
		t.Fatal("fresh disk has active ARUs")
	}
	a, _ := d.BeginARU()
	if d.ActiveARUs() != 1 {
		t.Fatal("BeginARU not counted")
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	if VariantNew.String() != "new" || VariantOld.String() != "old" || Variant(9).String() == "" {
		t.Fatal("Variant.String broken")
	}
	for _, s := range []ReadSemantics{ReadOwnShadow, ReadAnyShadow, ReadCommitted, ReadSemantics(9)} {
		if s.String() == "" {
			t.Fatalf("ReadSemantics(%d).String empty", s)
		}
	}
	if fmt.Sprint(CleanGreedy) == fmt.Sprint(CleanCostBenefit) {
		t.Fatal("cleaner policies indistinguishable")
	}
}

// TestReadAnyShadowEdgeCases covers option 1 on blocks without any
// shadow version, unwritten blocks, and materialized data.
func TestReadAnyShadowEdgeCases(t *testing.T) {
	d, _ := newTestLLD(t, Params{Layout: testLayout(48), ReadSemantics: ReadAnyShadow})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	buf := make([]byte, d.BlockSize())

	// Allocated but never written: zeroes.
	if err := d.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatalf("unwritten block under any-shadow: %#x", buf[0])
	}
	// Committed buffer only.
	if err := d.Write(0, b, fill(d, 0x31)); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, b, buf); err != nil || buf[0] != 0x31 {
		t.Fatalf("committed buffer under any-shadow: %v %#x", err, buf[0])
	}
	// Persistent only (after flush, record promoted).
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, b, buf); err != nil || buf[0] != 0x31 {
		t.Fatalf("persistent under any-shadow: %v %#x", err, buf[0])
	}
	// A shadow deletion hides that version from the any-shadow pick.
	a, _ := d.BeginARU()
	if err := d.DeleteBlock(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, b, buf); err != nil || buf[0] != 0x31 {
		t.Fatalf("deleted shadow must not win the any-shadow pick: %v %#x", err, buf[0])
	}
	if err := d.AbortARU(a); err != nil {
		t.Fatal(err)
	}
	// Unallocated block errors.
	if err := d.Read(0, 999, buf); !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("any-shadow read of unallocated block: %v", err)
	}
}

// TestSegmentsAccounting cross-checks the observability API against
// reality: live counts sum to the block map, exactly one current
// segment, reusable implies not current.
func TestSegmentsAccounting(t *testing.T) {
	d, _ := newTestLLD(t, Params{Layout: testLayout(32)})
	lst, _ := d.NewList(0)
	for i := 0; i < 30; i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := d.Segments()
	if len(segs) != 32 {
		t.Fatalf("got %d segments", len(segs))
	}
	current := 0
	var live int32
	for _, s := range segs {
		if s.Current {
			current++
			if s.Reusable {
				t.Fatalf("current segment %d marked reusable", s.Index)
			}
		}
		live += s.Live
	}
	if current != 1 {
		t.Fatalf("%d current segments", current)
	}
	if live != 30 {
		t.Fatalf("live blocks sum to %d, want 30", live)
	}
}

// TestAbortedAllocsSwept: the blocks aborted units allocate are freed
// by the next maintenance pass with no unit open (here each Flush's
// segment write), so a workload that keeps aborting does not grow the
// block table until the next mount (the leak the mount-time sweep
// would otherwise face whole).
func TestAbortedAllocsSwept(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	data := make([]byte, d.BlockSize())
	for i := 0; i < 400; i++ {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.NewBlock(a, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, b, data); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := d.AbortARU(a); err != nil {
				t.Fatal(err)
			}
		} else if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if blocks, _ := d.ListBlocks(0, lst); len(blocks) > 4 {
			// Keep the committed list short so the log never fills.
			if err := d.DeleteBlock(0, blocks[len(blocks)-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := d.Stats(); st.LeakedBlocksFreed != 200 {
		t.Fatalf("maintenance swept %d of the 200 aborted allocations", st.LeakedBlocksFreed)
	}
	freed, err := d.CheckDisk()
	if err != nil {
		t.Fatal(err)
	}
	if freed != 0 {
		t.Fatalf("full sweep freed %d blocks maintenance left behind", freed)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWindowAtBegin: with a checkpoint due and the log nearly
// full, BeginARU holds a new unit back until the open one ends, so the
// maintenance after that commit finds no unit open and checkpoints.
// Opening the new unit at once would defer the checkpoint again, and
// a stream of overlapping units could defer it until the disk is full.
func TestCheckpointWindowAtBegin(t *testing.T) {
	d, _ := newTestLLD(t, Params{Layout: testLayout(32), CheckpointEvery: 4, CleanerLowWater: 8})
	lst, _ := d.NewList(0)
	b, err := d.NewBlock(0, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	hold, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	// One segment per Flush; the open unit keeps every checkpoint back.
	ckpts := d.Stats().Checkpoints
	for i := 0; d.FreeSegments() >= 8; i++ {
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().Checkpoints != ckpts {
		t.Fatal("set-up: a checkpoint ran while a unit was open")
	}

	type begun struct {
		id   ARUID
		err  error
		took time.Duration
	}
	started, done := make(chan struct{}), make(chan begun, 1)
	go func() {
		close(started)
		t0 := time.Now()
		id, err := d.BeginARU()
		done <- begun{id, err, time.Since(t0)}
	}()
	<-started
	time.Sleep(2 * time.Millisecond)
	if err := d.EndARU(hold); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer d.EndARU(r.id)
	if r.took >= checkpointWait {
		t.Skipf("BeginARU waited out its %v bound (scheduler stall): inconclusive", checkpointWait)
	}
	if d.Stats().Checkpoints == ckpts {
		t.Fatal("the new unit opened before the due checkpoint could run")
	}
}
