package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Trailer is the per-segment metadata stored in the segment's final
// sector. A segment on disk is valid iff its trailer decodes and its
// checksums match.
//
// A seal writes only the bytes it filled (DESIGN.md §17). A full
// segment — one with no room for another block — is written whole, as
// one extent; because the trailer sits at the very end, a torn write
// cannot yield a valid trailer over partial contents. A partial
// segment is written as two extents, the data prefix and the summary
// tail (entry region plus trailer sector), and the version-2 trailer
// carries a CRC of the data prefix: the device may persist the tail
// while the data write is dropped or torn, and only that CRC tells the
// two apart.
type Trailer struct {
	// Seq is the position of this segment in the logical log. Seq is
	// strictly increasing across segment writes; recovery replays
	// valid segments in Seq order. 0 means "never written".
	Seq uint64
	// DataBlocks is the number of data blocks in the data area.
	DataBlocks uint32
	// EntryCount is the number of summary entries.
	EntryCount uint32
	// EntryBytes is the encoded size of the entry region (entries are
	// variable-length).
	EntryBytes uint32
	// Version is the trailer format: 1 for legacy trailers, whose
	// segments were always written whole, 2 for trailers that carry
	// the data CRC.
	Version int
	// entriesCRC protects the encoded entry region.
	entriesCRC uint32
	// dataCRC protects the data prefix of a two-extent segment (zero
	// when the segment was written whole).
	dataCRC uint32
}

// ErrBadSegment reports an unreadable or corrupt segment.
var ErrBadSegment = errors.New("seg: bad segment")

// ErrDataHole reports a two-extent segment whose data prefix does not
// match its trailer's data CRC: the summary tail reached the medium but
// the data write was dropped or torn. It is an un-synced hole in the
// log, not medium corruption — a completed Sync makes both extents
// whole.
var ErrDataHole = errors.New("seg: data extent does not match trailer")

// Trailer encodings within the final sector. Legacy (version 1):
// magic, seq, data blocks, entry count, entry bytes, entries CRC,
// trailer CRC. Version 2 inserts the data CRC before the trailer CRC.
const (
	trailerBytesV1 = 4 + 8 + 4 + 4 + 4 + 4 + 4
	trailerBytes   = trailerBytesV1 + 4
)

// encodeTrailer writes t as a version-2 trailer into the final sector
// of buf (len(buf) must be the full segment size).
func encodeTrailer(buf []byte, t Trailer) {
	sec := buf[len(buf)-SectorSize:]
	clear(sec)
	binary.LittleEndian.PutUint32(sec[0:], trailerMagicV2)
	binary.LittleEndian.PutUint64(sec[4:], t.Seq)
	binary.LittleEndian.PutUint32(sec[12:], t.DataBlocks)
	binary.LittleEndian.PutUint32(sec[16:], t.EntryCount)
	binary.LittleEndian.PutUint32(sec[20:], t.EntryBytes)
	binary.LittleEndian.PutUint32(sec[24:], t.entriesCRC)
	binary.LittleEndian.PutUint32(sec[28:], t.dataCRC)
	binary.LittleEndian.PutUint32(sec[32:], crc32.Checksum(sec[:32], crcTable))
}

// DecodeTrailer decodes the trailer from the final sector of a segment
// image (buf may be the full segment or just its last sector). Legacy
// version-1 trailers decode with Version 1 and mean "written whole".
func DecodeTrailer(buf []byte) (Trailer, error) {
	if len(buf) < SectorSize {
		return Trailer{}, fmt.Errorf("%w: short trailer buffer", ErrBadSegment)
	}
	sec := buf[len(buf)-SectorSize:]
	var t Trailer
	switch binary.LittleEndian.Uint32(sec[0:]) {
	case trailerMagic:
		t.Version = 1
	case trailerMagicV2:
		t.Version = 2
	default:
		return Trailer{}, fmt.Errorf("%w: bad trailer magic", ErrBadSegment)
	}
	crcOff := trailerBytesV1 - 4
	if t.Version == 2 {
		crcOff = trailerBytes - 4
		t.dataCRC = binary.LittleEndian.Uint32(sec[28:])
	}
	if got, want := binary.LittleEndian.Uint32(sec[crcOff:]), crc32.Checksum(sec[:crcOff], crcTable); got != want {
		return Trailer{}, fmt.Errorf("%w: bad trailer checksum", ErrBadSegment)
	}
	t.Seq = binary.LittleEndian.Uint64(sec[4:])
	t.DataBlocks = binary.LittleEndian.Uint32(sec[12:])
	t.EntryCount = binary.LittleEndian.Uint32(sec[16:])
	t.EntryBytes = binary.LittleEndian.Uint32(sec[20:])
	t.entriesCRC = binary.LittleEndian.Uint32(sec[24:])
	return t, nil
}

// Extent is one contiguous byte range of a sealed segment image, to be
// written Off bytes past the start of the segment.
type Extent struct {
	Off  int
	Data []byte
}

// split reports whether a sealed segment holding dataBlocks data
// blocks and entryBytes of summary entries is written as two extents:
// the gap between its data prefix and its summary tail could still
// hold a block. A segment with no such room is written whole.
func (l Layout) split(dataBlocks, entryBytes int) bool {
	return l.TailOff(entryBytes)-dataBlocks*l.BlockSize >= l.BlockSize
}

// TailOff returns the offset within a segment of its summary tail —
// the sector-aligned entry region followed by the trailer sector — for
// entries taking entryBytes. Negative if the entries cannot fit.
func (l Layout) TailOff(entryBytes int) int {
	off, _ := entriesRegion(l.SegBytes, entryBytes)
	return off
}

// Split reports whether the segment t seals was written as two extents
// and therefore carries a data CRC. Legacy segments were always
// written whole.
func (t Trailer) Split(l Layout) bool {
	return t.Version >= 2 && l.split(int(t.DataBlocks), int(t.EntryBytes))
}

// VerifyData checks the data prefix of a two-extent segment against
// its trailer's data CRC; img must hold at least the segment's first
// DataBlocks·BlockSize bytes. It returns nil for segments written
// whole (there is nothing separate to verify) and an error wrapping
// ErrDataHole on a mismatch.
func (t Trailer) VerifyData(l Layout, img []byte) error {
	if !t.Split(l) {
		return nil
	}
	n := int(t.DataBlocks) * l.BlockSize
	if n > len(img) || n > l.TailOff(int(t.EntryBytes)) {
		return fmt.Errorf("%w: data extent of %d blocks out of range", ErrBadSegment, t.DataBlocks)
	}
	if crc32.Checksum(img[:n], crcTable) != t.dataCRC {
		return fmt.Errorf("%w: seq %d, %d blocks", ErrDataHole, t.Seq, t.DataBlocks)
	}
	return nil
}

// entriesRegion returns the offset and length of the sector-aligned
// entry region for a segment whose encoded entries take entryBytes.
func entriesRegion(segBytes, entryBytes int) (off, length int) {
	length = int(roundUp(int64(entryBytes), SectorSize))
	off = segBytes - SectorSize - length
	return off, length
}

// DecodeEntriesFromSegment extracts the summary entries of a segment
// image whose trailer is t. segment may be the full image or any
// suffix of it that holds the summary tail: the entry region is
// located from the end.
func DecodeEntriesFromSegment(segment []byte, t Trailer) ([]Entry, error) {
	off, length := entriesRegion(len(segment), int(t.EntryBytes))
	if off < 0 {
		return nil, fmt.Errorf("%w: entry region does not fit (%d bytes)", ErrBadSegment, t.EntryBytes)
	}
	region := segment[off : off+length]
	if got := crc32.Checksum(region, crcTable); got != t.entriesCRC {
		return nil, fmt.Errorf("%w: bad entries checksum", ErrBadSegment)
	}
	return DecodeEntries(region, int(t.EntryCount))
}

// Builder accumulates data blocks and summary entries for one segment
// and seals them into a segment image. The data area grows from the
// front while the summary grows from the back (so a segment can be
// all data, all summary — the ARU-latency experiment fills segments
// with nothing but commit records — or any mix).
type Builder struct {
	layout     Layout
	buf        []byte
	nblocks    int
	entries    []Entry
	entryBytes int
	tailOff    int       // lowest offset a Seal wrote since the last Reset
	ext        [2]Extent // Seal's result, kept here so sealing never allocates
}

// NewBuilder returns an empty Builder for layout l.
func NewBuilder(l Layout) *Builder {
	return &Builder{
		layout:  l,
		buf:     make([]byte, l.SegBytes),
		tailOff: l.SegBytes,
	}
}

// Reset discards all accumulated contents. It zeroes only the bytes
// used since the last Reset — the data prefix and the sealed tail — so
// the rest of the buffer stays zero without a 512 KB clear per seal.
func (b *Builder) Reset() {
	clear(b.buf[:b.nblocks*b.layout.BlockSize])
	clear(b.buf[b.tailOff:])
	b.tailOff = len(b.buf)
	b.nblocks = 0
	b.entries = b.entries[:0]
	b.entryBytes = 0
}

// Empty reports whether the builder holds no blocks and no entries.
func (b *Builder) Empty() bool {
	return b.nblocks == 0 && len(b.entries) == 0
}

// DataBlocks returns the number of data blocks added so far.
func (b *Builder) DataBlocks() int { return b.nblocks }

// EntryCount returns the number of summary entries added so far.
func (b *Builder) EntryCount() int { return len(b.entries) }

// Fits reports whether extraBlocks data blocks plus extraEntries more
// summary entries (counted at the worst-case entry size) still fit.
func (b *Builder) Fits(extraBlocks, extraEntries int) bool {
	return b.FitsBytes(extraBlocks, extraEntries*MaxEntrySize)
}

// FitsBytes reports whether extraBlocks data blocks plus
// extraEntryBytes more bytes of summary entries still fit. Callers that
// know the exact entry sizes avoid the worst-case padding of Fits.
func (b *Builder) FitsBytes(extraBlocks, extraEntryBytes int) bool {
	dataBytes := (b.nblocks + extraBlocks) * b.layout.BlockSize
	_, entryLen := entriesRegion(b.layout.SegBytes, b.entryBytes+extraEntryBytes)
	return dataBytes+entryLen+SectorSize <= b.layout.SegBytes
}

// AddBlock copies one logical block of data into the next data slot and
// returns the slot index. The caller must have checked Fits(1, ...).
func (b *Builder) AddBlock(data []byte) uint32 {
	if len(data) != b.layout.BlockSize {
		panic(fmt.Sprintf("seg: AddBlock got %d bytes, want %d", len(data), b.layout.BlockSize))
	}
	if !b.Fits(1, 0) {
		panic("seg: AddBlock on full segment")
	}
	slot := uint32(b.nblocks)
	copy(b.buf[int(slot)*b.layout.BlockSize:], data)
	b.nblocks++
	return slot
}

// BlockData returns the in-buffer contents of data slot i. The returned
// slice aliases the builder and is valid until the next Reset.
func (b *Builder) BlockData(slot uint32) []byte {
	off := int(slot) * b.layout.BlockSize
	return b.buf[off : off+b.layout.BlockSize]
}

// AddEntry appends one summary entry. The caller must have checked
// capacity (Fits/FitsBytes); the internal check uses the entry's exact
// encoded size, so byte-accurate reservations are honored.
func (b *Builder) AddEntry(e Entry) {
	if !b.FitsBytes(0, EncodedSize(e.Kind)) {
		panic("seg: AddEntry on full segment")
	}
	b.entries = append(b.entries, e)
	b.entryBytes += EncodedSize(e.Kind)
}

// Seal finalizes the segment with log sequence number seq and returns
// the extents to write: the whole image when the segment is full (no
// room for one more block), otherwise the data prefix (omitted when
// empty) and the summary tail. The extents alias the builder's buffer
// and are valid until the next Reset; Image returns the full image.
func (b *Builder) Seal(seq uint64) []Extent {
	off, length := entriesRegion(b.layout.SegBytes, b.entryBytes)
	region := b.buf[off : off+length]
	clear(region)
	enc := region[:0]
	for _, e := range b.entries {
		enc = AppendEntry(enc, e)
	}
	t := Trailer{
		Seq:        seq,
		DataBlocks: uint32(b.nblocks),
		EntryCount: uint32(len(b.entries)),
		EntryBytes: uint32(b.entryBytes),
		entriesCRC: crc32.Checksum(region, crcTable),
	}
	b.tailOff = min(b.tailOff, off)
	if !b.layout.split(b.nblocks, b.entryBytes) {
		encodeTrailer(b.buf, t)
		b.ext[0] = Extent{Off: 0, Data: b.buf}
		return b.ext[:1]
	}
	data := b.buf[:b.nblocks*b.layout.BlockSize]
	t.dataCRC = crc32.Checksum(data, crcTable)
	encodeTrailer(b.buf, t)
	n := 0
	if len(data) > 0 {
		b.ext[n] = Extent{Off: 0, Data: data}
		n++
	}
	b.ext[n] = Extent{Off: off, Data: b.buf[off:]}
	return b.ext[:n+1]
}

// Image returns the builder's full segment image. After Seal it is the
// sealed segment as it reads back from the device (bytes outside the
// written extents are zero here and unspecified on the device); it
// aliases the builder and is valid until the next Reset.
func (b *Builder) Image() []byte { return b.buf }
