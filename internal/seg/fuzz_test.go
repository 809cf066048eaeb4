package seg

import (
	"reflect"
	"testing"
)

// fuzzLayout is a small but realistic layout, the same shape the
// crash-enumeration checker formats (internal/crashenum).
func fuzzLayout() Layout {
	return Layout{BlockSize: 1024, SegBytes: 8192, NumSegs: 96, MaxBlocks: 2048, MaxLists: 512}
}

// seedCheckpoints builds the checkpoint images a real formatted disk
// contains: the empty post-format checkpoint and a populated one with
// linked lists, unwritten blocks, and a leaked (NilList) allocation.
func seedCheckpoints(t testing.TB) [][]byte {
	t.Helper()
	l := fuzzLayout()
	empty := Checkpoint{CkptTS: 1, NextTS: 2, NextBlock: 1, NextList: 1, NextARU: 1}
	full := Checkpoint{
		CkptTS: 42, FlushedSeq: 17, NextTS: 911, NextBlock: 9, NextList: 4, NextARU: 6,
		Blocks: []BlockRec{
			{ID: 1, Seg: 3, Slot: 0, Succ: 2, List: 1, TS: 100, HasData: true},
			{ID: 2, Seg: 3, Slot: 1, Succ: NilBlock, List: 1, TS: 101, HasData: true},
			{ID: 5, Succ: NilBlock, List: 2, TS: 104},       // allocated, never written
			{ID: 8, Succ: NilBlock, List: NilList, TS: 108}, // leaked allocation
		},
		Lists: []ListRec{
			{ID: 1, First: 1, Last: 2},
			{ID: 2, First: 5, Last: 5},
			{ID: 3, First: NilBlock, Last: NilBlock},
		},
	}
	var out [][]byte
	for _, c := range []Checkpoint{empty, full} {
		buf, err := EncodeCheckpoint(l, c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// FuzzCheckpointDecode feeds arbitrary bytes — seeded from real
// checkpoint images — to DecodeCheckpoint. The decoder must never
// panic, and anything it accepts must re-encode and re-decode to the
// identical checkpoint (round-trip stability).
func FuzzCheckpointDecode(f *testing.F) {
	for _, img := range seedCheckpoints(f) {
		f.Add(img)
		// A few systematic corruptions of the real image: truncation,
		// header-field flips, payload flips.
		trunc := img[:len(img)/2]
		f.Add(trunc)
		for _, pos := range []int{0, 4, 52, 56, 60, 64, len(img) - 1} {
			if pos < len(img) {
				mut := append([]byte(nil), img...)
				mut[pos] ^= 0xff
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		l := Layout{MaxBlocks: len(c.Blocks), MaxLists: len(c.Lists)}
		enc, err := EncodeCheckpoint(l, c)
		if err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		c2, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("round trip unstable:\n first %+v\nsecond %+v", c, c2)
		}
	})
}

// FuzzSuperDecode feeds arbitrary bytes — seeded from real superblock
// images — to DecodeSuper. The decoder must never panic, must reject
// invalid geometry, and anything it accepts must round-trip.
func FuzzSuperDecode(f *testing.F) {
	for _, l := range []Layout{
		fuzzLayout(),
		{BlockSize: 4096, SegBytes: 1 << 19, NumSegs: 32, MaxBlocks: 4096, MaxLists: 256},
	} {
		img := EncodeSuper(l)
		f.Add(img)
		for _, pos := range []int{0, 8, 12, 16, 28, len(img) - 1} {
			mut := append([]byte(nil), img...)
			mut[pos] ^= 0xff
			f.Add(mut)
		}
		f.Add(img[:16])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeSuper(data)
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("accepted layout fails validation: %v", err)
		}
		l2, err := DecodeSuper(EncodeSuper(l))
		if err != nil {
			t.Fatalf("re-encoded superblock does not decode: %v", err)
		}
		if l != l2 {
			t.Fatalf("round trip unstable: %+v vs %+v", l, l2)
		}
	})
}

// FuzzTrailerDecode feeds arbitrary bytes — seeded from real version-2
// trailers (one- and two-extent segments) and a legacy version-1
// trailer — to DecodeTrailer. The decoder must never panic, and
// anything it accepts must re-encode (as version 2) to the same fields.
func FuzzTrailerDecode(f *testing.F) {
	l := fuzzLayout()
	b := NewBuilder(l)
	b.AddBlock(make([]byte, l.BlockSize))
	b.AddEntry(Entry{Kind: KindWrite, TS: 1, Block: 1})
	b.AddEntry(Entry{Kind: KindCommit, ARU: 1, TS: 2})
	b.Seal(3)
	split := append([]byte(nil), b.Image()[l.SegBytes-SectorSize:]...)
	for b.Fits(1, 1) {
		slot := b.AddBlock(make([]byte, l.BlockSize))
		b.AddEntry(Entry{Kind: KindWrite, TS: uint64(slot) + 3, Block: 2, Slot: slot})
	}
	b.Seal(4)
	whole := append([]byte(nil), b.Image()[l.SegBytes-SectorSize:]...)
	tr, err := DecodeTrailer(split)
	if err != nil {
		f.Fatal(err)
	}
	legacy := make([]byte, SectorSize)
	encodeTrailerV1(legacy, tr)
	for _, sec := range [][]byte{split, whole, legacy} {
		f.Add(sec)
		for _, pos := range []int{0, 4, 12, 20, 28, 32} {
			mut := append([]byte(nil), sec...)
			mut[pos] ^= 0xff
			f.Add(mut)
		}
		f.Add(sec[:trailerBytesV1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrailer(data)
		if err != nil {
			return
		}
		if tr.Version != 1 && tr.Version != 2 {
			t.Fatalf("accepted trailer with version %d", tr.Version)
		}
		_ = tr.VerifyData(l, make([]byte, l.SegBytes))
		img := make([]byte, SectorSize)
		encodeTrailer(img, tr)
		tr2, err := DecodeTrailer(img)
		if err != nil {
			t.Fatalf("re-encoded trailer does not decode: %v", err)
		}
		tr.Version = 2
		if tr != tr2 {
			t.Fatalf("round trip unstable:\n first %+v\nsecond %+v", tr, tr2)
		}
	})
}
