package seg

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testLayout() Layout {
	return Layout{BlockSize: 1024, SegBytes: 8192, NumSegs: 16, MaxBlocks: 512, MaxLists: 128}
}

func TestLayoutValidate(t *testing.T) {
	good := testLayout()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := []Layout{
		{BlockSize: 0, SegBytes: 8192, NumSegs: 1, MaxBlocks: 1, MaxLists: 1},
		{BlockSize: 1000, SegBytes: 8192, NumSegs: 1, MaxBlocks: 1, MaxLists: 1}, // not sector multiple
		{BlockSize: 1024, SegBytes: 1024, NumSegs: 1, MaxBlocks: 1, MaxLists: 1}, // seg too small
		{BlockSize: 1024, SegBytes: 8000, NumSegs: 1, MaxBlocks: 1, MaxLists: 1}, // not block multiple
		{BlockSize: 1024, SegBytes: 8192, NumSegs: 0, MaxBlocks: 1, MaxLists: 1}, // no segments
		{BlockSize: 1024, SegBytes: 8192, NumSegs: 1, MaxBlocks: 0, MaxLists: 1}, // no blocks
		{BlockSize: 1024, SegBytes: 8192, NumSegs: 1, MaxBlocks: 1, MaxLists: 0}, // no lists
	}
	for i, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid layout accepted: %+v", i, l)
		}
	}
}

func TestLayoutOffsetsDisjoint(t *testing.T) {
	l := testLayout()
	if l.CkptOff(0) < int64(superBytes) {
		t.Error("checkpoint 0 overlaps superblock")
	}
	if l.CkptOff(1) < l.CkptOff(0)+l.CkptRegionBytes() {
		t.Error("checkpoint regions overlap")
	}
	if l.SegOff(0) < l.CkptOff(1)+l.CkptRegionBytes() {
		t.Error("segments overlap checkpoints")
	}
	for s := 1; s < l.NumSegs; s++ {
		if l.SegOff(s) != l.SegOff(s-1)+int64(l.SegBytes) {
			t.Fatalf("segment %d misplaced", s)
		}
	}
	if l.DiskBytes() != l.SegOff(l.NumSegs) {
		t.Error("DiskBytes does not cover the last segment")
	}
}

func TestSuperRoundTrip(t *testing.T) {
	l := testLayout()
	buf := EncodeSuper(l)
	got, err := DecodeSuper(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Fatalf("round trip: %+v != %+v", got, l)
	}
	// Corruption is detected.
	buf[5] ^= 0xff
	if _, err := DecodeSuper(buf); !errors.Is(err, ErrBadSuper) {
		t.Fatalf("corrupt superblock accepted: %v", err)
	}
	if _, err := DecodeSuper(make([]byte, 4)); !errors.Is(err, ErrBadSuper) {
		t.Fatal("short superblock accepted")
	}
}

func TestBuilderSealParseRoundTrip(t *testing.T) {
	l := testLayout()
	b := NewBuilder(l)
	if !b.Empty() {
		t.Fatal("fresh builder not empty")
	}
	data1 := bytes.Repeat([]byte{0x11}, l.BlockSize)
	data2 := bytes.Repeat([]byte{0x22}, l.BlockSize)
	s1 := b.AddBlock(data1)
	s2 := b.AddBlock(data2)
	entries := []Entry{
		{Kind: KindNewBlock, ARU: 1, TS: 10, Block: 5, List: 2},
		{Kind: KindWrite, TS: 11, Block: 5, Slot: s1},
		{Kind: KindWrite, TS: 12, Block: 6, Slot: s2},
		{Kind: KindCommit, ARU: 1, TS: 13},
	}
	for _, e := range entries {
		b.AddEntry(e)
	}
	b.Seal(42)
	img := b.Image()
	if len(img) != l.SegBytes {
		t.Fatalf("sealed image is %d bytes, want %d", len(img), l.SegBytes)
	}
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Seq != 42 || tr.DataBlocks != 2 || tr.EntryCount != 4 {
		t.Fatalf("trailer: %+v", tr)
	}
	got, err := DecodeEntriesFromSegment(img, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
	if !bytes.Equal(img[:l.BlockSize], data1) {
		t.Fatal("data slot 0 corrupted")
	}
	if !bytes.Equal(b.BlockData(s2), data2) {
		t.Fatal("BlockData does not alias slot 1")
	}
}

func TestTornSegmentInvalid(t *testing.T) {
	l := testLayout()
	b := NewBuilder(l)
	b.AddEntry(Entry{Kind: KindCommit, ARU: 1, TS: 1})
	b.Seal(7)
	img := append([]byte(nil), b.Image()...)

	// A torn write that loses the trailing sector must invalidate the
	// whole segment.
	torn := append([]byte(nil), img...)
	for i := len(torn) - SectorSize; i < len(torn); i++ {
		torn[i] = 0
	}
	if _, err := DecodeTrailer(torn); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("torn trailer accepted: %v", err)
	}

	// A corrupted entry region must fail the checksum even when the
	// trailer survives.
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	off, _ := entriesRegion(l.SegBytes, int(tr.EntryBytes))
	img[off] ^= 0xff
	if _, err := DecodeEntriesFromSegment(img, tr); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("corrupt entry region accepted: %v", err)
	}
}

func TestBuilderCapacity(t *testing.T) {
	l := testLayout() // 8 KB segment, 1 KB blocks
	b := NewBuilder(l)
	blocks := 0
	for b.Fits(1, 1) {
		b.AddBlock(make([]byte, l.BlockSize))
		b.AddEntry(Entry{Kind: KindWrite, TS: uint64(blocks), Block: BlockID(blocks + 1), Slot: uint32(blocks)})
		blocks++
	}
	if blocks < 5 || blocks > 7 {
		t.Fatalf("8 KB segment held %d 1 KB blocks; expected 5-7", blocks)
	}
	// Entry-only capacity: a segment can be all summary (the
	// ARU-latency experiment's shape).
	b2 := NewBuilder(l)
	count := 0
	for b2.Fits(0, 1) {
		b2.AddEntry(Entry{Kind: KindCommit, ARU: ARUID(count), TS: uint64(count)})
		count++
	}
	// 8 KB - trailer sector leaves ~7.5 KB of 17-byte commits.
	if count < 300 {
		t.Fatalf("only %d commit records fit; expected hundreds", count)
	}
	b2.Seal(1)
	img := b2.Image()
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	if int(tr.EntryCount) != count || tr.DataBlocks != 0 {
		t.Fatalf("trailer %+v, want %d entries", tr, count)
	}
	if _, err := DecodeEntriesFromSegment(img, tr); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReset(t *testing.T) {
	l := testLayout()
	b := NewBuilder(l)
	b.AddBlock(bytes.Repeat([]byte{0xff}, l.BlockSize))
	b.AddEntry(Entry{Kind: KindCommit, ARU: 1, TS: 1})
	b.Reset()
	if !b.Empty() || b.DataBlocks() != 0 || b.EntryCount() != 0 {
		t.Fatal("reset builder not empty")
	}
	b.Seal(9)
	img := b.Image()
	for _, x := range img[:l.BlockSize] {
		if x != 0 {
			t.Fatal("stale data survived Reset")
		}
	}
}

// TestQuickSegmentRoundTrip: random mixes of blocks and entries always
// round-trip through seal/decode.
func TestQuickSegmentRoundTrip(t *testing.T) {
	l := testLayout()
	kinds := allKinds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(l)
		var entries []Entry
		nblocks := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(3) == 0 && b.Fits(1, 0) {
				data := make([]byte, l.BlockSize)
				rng.Read(data)
				b.AddBlock(data)
				nblocks++
				continue
			}
			if !b.Fits(0, 1) {
				break
			}
			e := canonical(Entry{
				Kind:  kinds[rng.Intn(len(kinds))],
				ARU:   ARUID(rng.Uint32()),
				TS:    uint64(i),
				Block: BlockID(rng.Uint32()),
				List:  ListID(rng.Uint32()),
				Pred:  BlockID(rng.Uint32()),
				Slot:  rng.Uint32(),
			})
			entries = append(entries, e)
			b.AddEntry(e)
		}
		b.Seal(uint64(seed))
		img := b.Image()
		tr, err := DecodeTrailer(img)
		if err != nil || int(tr.DataBlocks) != nblocks {
			return false
		}
		got, err := DecodeEntriesFromSegment(img, tr)
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range got {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	l := testLayout()
	ck := Checkpoint{
		CkptTS: 9, FlushedSeq: 4, NextTS: 1000, NextBlock: 55, NextList: 12, NextARU: 7,
		Blocks: []BlockRec{
			{ID: 3, Seg: 1, Slot: 2, Succ: 4, List: 2, TS: 99, HasData: true},
			{ID: 4, List: 2, TS: 100},
		},
		Lists: []ListRec{{ID: 2, First: 3, Last: 4}},
	}
	buf, err := EncodeCheckpoint(l, ck)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(buf)) > l.CkptRegionBytes() {
		t.Fatalf("encoded checkpoint exceeds its region: %d > %d", len(buf), l.CkptRegionBytes())
	}
	if len(buf)%SectorSize != 0 {
		t.Fatalf("checkpoint not sector aligned: %d", len(buf))
	}
	got, err := DecodeCheckpoint(buf)
	if err != nil {
		t.Fatal(err)
	}
	ck.SortTables()
	got.SortTables()
	if got.CkptTS != ck.CkptTS || got.FlushedSeq != ck.FlushedSeq ||
		got.NextTS != ck.NextTS || got.NextBlock != ck.NextBlock ||
		got.NextList != ck.NextList || got.NextARU != ck.NextARU {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Blocks) != 2 || got.Blocks[0] != ck.Blocks[0] || got.Blocks[1] != ck.Blocks[1] {
		t.Fatalf("blocks mismatch: %+v", got.Blocks)
	}
	if len(got.Lists) != 1 || got.Lists[0] != ck.Lists[0] {
		t.Fatalf("lists mismatch: %+v", got.Lists)
	}

	// Header corruption.
	bad := append([]byte(nil), buf...)
	bad[8] ^= 1
	if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatal("corrupt header accepted")
	}
	// Payload corruption.
	bad = append([]byte(nil), buf...)
	bad[ckptHeaderBytes] ^= 1
	if _, err := DecodeCheckpoint(bad); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatal("corrupt payload accepted")
	}
}

func TestCheckpointBounds(t *testing.T) {
	l := testLayout()
	ck := Checkpoint{Blocks: make([]BlockRec, l.MaxBlocks+1)}
	if _, err := EncodeCheckpoint(l, ck); err == nil {
		t.Fatal("oversized block table accepted")
	}
	ck = Checkpoint{Lists: make([]ListRec, l.MaxLists+1)}
	if _, err := EncodeCheckpoint(l, ck); err == nil {
		t.Fatal("oversized list table accepted")
	}
}
