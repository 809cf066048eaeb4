package seg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// splitImage seals a partial segment — two data blocks and a commit —
// and returns the device image a two-extent write leaves on a segment
// slot that previously held old, plus the sealed extents.
func splitImage(t *testing.T, old []byte) (img []byte, ext []Extent) {
	t.Helper()
	l := testLayout()
	b := NewBuilder(l)
	b.AddBlock(bytes.Repeat([]byte{0x11}, l.BlockSize))
	b.AddBlock(bytes.Repeat([]byte{0x22}, l.BlockSize))
	b.AddEntry(Entry{Kind: KindWrite, TS: 1, Block: 1, Slot: 0})
	b.AddEntry(Entry{Kind: KindWrite, TS: 2, Block: 2, Slot: 1})
	b.AddEntry(Entry{Kind: KindCommit, ARU: 1, TS: 3})
	ext = b.Seal(9)
	img = append([]byte(nil), old...)
	for _, x := range ext {
		copy(img[x.Off:], x.Data)
	}
	return img, ext
}

func TestSealExtents(t *testing.T) {
	l := testLayout()
	img, ext := splitImage(t, make([]byte, l.SegBytes))
	if len(ext) != 2 {
		t.Fatalf("partial segment sealed into %d extents, want 2", len(ext))
	}
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version != 2 || !tr.Split(l) {
		t.Fatalf("trailer %+v: want a split version-2 trailer", tr)
	}
	// The trailer alone locates both extents, as recovery reads them.
	if ext[0].Off != 0 || len(ext[0].Data) != int(tr.DataBlocks)*l.BlockSize || tr.DataBlocks != 2 {
		t.Fatalf("data extent [%d,+%d), trailer says %d blocks", ext[0].Off, len(ext[0].Data), tr.DataBlocks)
	}
	if ext[1].Off != l.TailOff(int(tr.EntryBytes)) || ext[1].Off+len(ext[1].Data) != l.SegBytes {
		t.Fatalf("tail extent [%d,+%d), trailer says it starts at %d", ext[1].Off, len(ext[1].Data), l.TailOff(int(tr.EntryBytes)))
	}
	if err := tr.VerifyData(l, img); err != nil {
		t.Fatalf("intact data extent rejected: %v", err)
	}

	// A full segment is one extent, the whole image, with no data CRC
	// to check.
	b := NewBuilder(l)
	for b.Fits(1, 1) {
		slot := b.AddBlock(make([]byte, l.BlockSize))
		b.AddEntry(Entry{Kind: KindWrite, TS: uint64(slot), Block: BlockID(slot + 1), Slot: slot})
	}
	full := b.Seal(10)
	if len(full) != 1 || full[0].Off != 0 || len(full[0].Data) != l.SegBytes {
		t.Fatalf("full segment sealed into %d extents", len(full))
	}
	if tr, err := DecodeTrailer(b.Image()); err != nil || tr.Split(l) {
		t.Fatalf("full segment trailer %+v (%v) reads as split", tr, err)
	}

	// Entries only: the empty data extent is not written.
	b.Reset()
	b.AddEntry(Entry{Kind: KindCommit, ARU: 2, TS: 11})
	only := b.Seal(11)
	if len(only) != 1 || only[0].Off == 0 || only[0].Off+len(only[0].Data) != l.SegBytes {
		t.Fatalf("entry-only segment sealed into %+v", only)
	}
}

// TestSplitDataHole covers the crash states a two-extent write adds:
// the tail lands while the data write is dropped (the slot's old bytes
// remain), torn (a sector prefix lands), or stale (an older image's
// data sits under a newer tail). Each must fail VerifyData with
// ErrDataHole while the tail alone still decodes.
func TestSplitDataHole(t *testing.T) {
	l := testLayout()
	old := bytes.Repeat([]byte{0x5a}, l.SegBytes)
	img, ext := splitImage(t, old)
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	dataLen := len(ext[0].Data)

	dropped := append([]byte(nil), old...)
	copy(dropped[ext[1].Off:], ext[1].Data)

	torn := append([]byte(nil), dropped...)
	copy(torn, ext[0].Data[:3*SectorSize])

	stale := append([]byte(nil), img...)
	copy(stale[l.BlockSize:dataLen], bytes.Repeat([]byte{0x33}, l.BlockSize))

	for name, bad := range map[string][]byte{"dropped": dropped, "torn": torn, "stale": stale} {
		tr2, err := DecodeTrailer(bad)
		if err != nil {
			t.Fatalf("%s: tail did not decode: %v", name, err)
		}
		if _, err := DecodeEntriesFromSegment(bad, tr2); err != nil {
			t.Fatalf("%s: entries did not decode: %v", name, err)
		}
		if err := tr2.VerifyData(l, bad); !errors.Is(err, ErrDataHole) {
			t.Fatalf("%s: VerifyData = %v, want ErrDataHole", name, err)
		}
	}
	// Recovery reads only the extents: the tail alone (as a suffix)
	// decodes the same entries.
	if _, err := DecodeEntriesFromSegment(img[ext[1].Off:], tr); err != nil {
		t.Fatalf("tail-only decode: %v", err)
	}
}

// TestLegacyTrailerDecode: a version-1 trailer (written by engines that
// always wrote the whole image) still decodes, reads as one extent and
// has no data CRC to check, even over a partial segment.
func TestLegacyTrailerDecode(t *testing.T) {
	l := testLayout()
	img, _ := splitImage(t, make([]byte, l.SegBytes))
	v2, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte(nil), img...)
	encodeTrailerV1(legacy, v2)
	tr, err := DecodeTrailer(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Version != 1 || tr.Seq != v2.Seq || tr.DataBlocks != v2.DataBlocks || tr.EntryCount != v2.EntryCount || tr.EntryBytes != v2.EntryBytes {
		t.Fatalf("legacy trailer decoded as %+v, want the fields of %+v", tr, v2)
	}
	if tr.Split(l) {
		t.Fatal("legacy trailer reads as a two-extent segment")
	}
	// Whatever the data area holds, there is nothing to verify.
	clear(legacy[:l.BlockSize])
	if err := tr.VerifyData(l, legacy); err != nil {
		t.Fatalf("legacy segment data checked: %v", err)
	}
	if _, err := DecodeEntriesFromSegment(legacy, tr); err != nil {
		t.Fatal(err)
	}
	// A flipped byte under the legacy trailer CRC is still caught.
	legacy[len(legacy)-SectorSize+5] ^= 1
	if _, err := DecodeTrailer(legacy); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("corrupt legacy trailer accepted: %v", err)
	}
}

// encodeTrailerV1 writes t in the legacy version-1 encoding.
func encodeTrailerV1(buf []byte, t Trailer) {
	sec := buf[len(buf)-SectorSize:]
	clear(sec)
	binary.LittleEndian.PutUint32(sec[0:], trailerMagic)
	binary.LittleEndian.PutUint64(sec[4:], t.Seq)
	binary.LittleEndian.PutUint32(sec[12:], t.DataBlocks)
	binary.LittleEndian.PutUint32(sec[16:], t.EntryCount)
	binary.LittleEndian.PutUint32(sec[20:], t.EntryBytes)
	binary.LittleEndian.PutUint32(sec[24:], t.entriesCRC)
	binary.LittleEndian.PutUint32(sec[28:], crc32.Checksum(sec[:28], crcTable))
}

// TestResetZeroesTouchedBytes: Reset clears exactly what the previous
// use wrote, so a reused builder seals byte-identical images to a
// fresh one.
func TestResetZeroesTouchedBytes(t *testing.T) {
	l := testLayout()
	fill := func(b *Builder, blocks, commits int, v byte) {
		for i := 0; i < blocks; i++ {
			b.AddBlock(bytes.Repeat([]byte{v}, l.BlockSize))
		}
		for i := 0; i < commits; i++ {
			b.AddEntry(Entry{Kind: KindCommit, ARU: ARUID(i + 1), TS: uint64(i + 1)})
		}
	}
	used := NewBuilder(l)
	fill(used, 5, 40, 0xee) // large tail, reaching below the next seal's
	used.Seal(1)
	used.Reset()
	fill(used, 1, 2, 0x44)
	used.Seal(2)

	fresh := NewBuilder(l)
	fill(fresh, 1, 2, 0x44)
	fresh.Seal(2)
	if !bytes.Equal(used.Image(), fresh.Image()) {
		t.Fatal("reused builder's image differs from a fresh builder's")
	}
}
