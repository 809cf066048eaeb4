package seg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDecodersNeverPanicOnGarbage feeds random bytes to every decoder:
// they must return errors (or garbage values), never panic — recovery
// runs them over whatever a crash left behind.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, int(n)%8192)
		rng.Read(buf)
		// None of these may panic.
		_, _ = DecodeSuper(buf)
		_, _ = DecodeTrailer(buf)
		_, _ = DecodeCheckpoint(buf)
		_, _, _ = DecodeEntry(buf)
		_, _ = DecodeEntries(buf, int(n)%64)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBitFlippedSegmentNeverDecodesSilently flips one random bit in a
// valid segment image; the trailer, entry or (for this two-extent
// segment) data checksum must catch it, or the flip landed in dead
// padding.
func TestBitFlippedSegmentNeverDecodesSilently(t *testing.T) {
	l := testLayout()
	build := func() []byte {
		b := NewBuilder(l)
		b.AddBlock(make([]byte, l.BlockSize))
		for i := 0; i < 20; i++ {
			b.AddEntry(Entry{Kind: KindCommit, ARU: ARUID(i + 1), TS: uint64(i + 1)})
		}
		img := make([]byte, l.SegBytes)
		b.Seal(5)
		copy(img, b.Image())
		return img
	}
	pristine := build()
	tr, err := DecodeTrailer(pristine)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeEntriesFromSegment(pristine, tr)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1996))
	entOff, entLen := entriesRegion(l.SegBytes, int(tr.EntryBytes))
	for trial := 0; trial < 500; trial++ {
		img := build()
		bit := rng.Intn(len(img) * 8)
		img[bit/8] ^= 1 << (bit % 8)

		tr2, err := DecodeTrailer(img)
		if err != nil {
			continue // trailer checksum caught it
		}
		got, err := DecodeEntriesFromSegment(img, tr2)
		if err != nil {
			continue // entry checksum caught it
		}
		// Decoded fine: the flip must have been outside the protected
		// regions (data extent or padding), and the entries identical.
		pos := bit / 8
		if err := tr2.VerifyData(l, img); err != nil {
			continue // data checksum caught it
		}
		if pos < l.BlockSize {
			t.Fatalf("trial %d: flip inside data extent verified silently", trial)
		}
		if pos >= entOff && pos < entOff+entLen {
			t.Fatalf("trial %d: flip inside entry region decoded silently", trial)
		}
		// Only the encoded trailer fields are protected; the rest of
		// the trailer sector is padding.
		if ts := len(img) - SectorSize; pos >= ts && pos < ts+trailerBytes {
			t.Fatalf("trial %d: flip inside trailer decoded silently", trial)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: entry count changed silently", trial)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: entry %d changed silently", trial, i)
			}
		}
	}
}
