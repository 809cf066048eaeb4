package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// SectorSize mirrors the atomic transfer unit of the disk substrate.
// The segment trailer occupies exactly one sector so that a torn
// segment write can never produce a valid trailer over partial data.
const SectorSize = 512

// Magic numbers for the on-disk structures.
const (
	superMagic   = 0x4c4c4453 // "LLDS"
	trailerMagic = 0x4c4c4454 // "LLDT", legacy version-1 segment trailer
	// trailerMagicV2 marks the version-2 trailer, which adds the data
	// CRC of a two-extent segment.
	trailerMagicV2 = 0x4c4c4432 // "LLD2"
	ckptMagic      = 0x4c4c4443 // "LLDC"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Layout describes the geometry of an LLD-formatted disk: a superblock,
// two checkpoint regions (double-buffered table snapshots), and the log
// segments. The paper's evaluation uses 4 KB blocks, 0.5 MB segments
// and a 400 MB partition.
type Layout struct {
	// BlockSize is the logical block size in bytes (multiple of
	// SectorSize).
	BlockSize int
	// SegBytes is the segment size in bytes (multiple of BlockSize).
	SegBytes int
	// NumSegs is the number of log segments.
	NumSegs int
	// MaxBlocks bounds the number of simultaneously allocated blocks;
	// it sizes the checkpoint regions.
	MaxBlocks int
	// MaxLists bounds the number of simultaneously allocated lists.
	MaxLists int
}

// DefaultLayout returns the paper's configuration: 4 KB blocks, 0.5 MB
// segments, and numSegs segments (800 segments = the 400 MB partition).
func DefaultLayout(numSegs int) Layout {
	return Layout{
		BlockSize: 4096,
		SegBytes:  512 * 1024,
		NumSegs:   numSegs,
		MaxBlocks: numSegs * 128,
		MaxLists:  numSegs * 64,
	}
}

// Validate checks the layout for internal consistency.
func (l Layout) Validate() error {
	switch {
	case l.BlockSize <= 0 || l.BlockSize%SectorSize != 0:
		return fmt.Errorf("seg: block size %d not a positive multiple of %d", l.BlockSize, SectorSize)
	case l.SegBytes < l.BlockSize+2*SectorSize || l.SegBytes%l.BlockSize != 0:
		return fmt.Errorf("seg: segment size %d invalid for block size %d", l.SegBytes, l.BlockSize)
	case l.NumSegs <= 0:
		return fmt.Errorf("seg: need at least one segment, got %d", l.NumSegs)
	case l.MaxBlocks <= 0 || l.MaxLists <= 0:
		return fmt.Errorf("seg: MaxBlocks/MaxLists must be positive (%d/%d)", l.MaxBlocks, l.MaxLists)
	}
	return nil
}

// BlocksPerSeg returns the maximum number of data blocks a segment can
// hold (at least one summary sector and the trailer must also fit).
func (l Layout) BlocksPerSeg() int {
	n := (l.SegBytes - 2*SectorSize) / l.BlockSize
	if n < 1 {
		n = 1
	}
	return n
}

// superBytes is the reserved size of the superblock region.
const superBytes = SectorSize

// ckptHeaderBytes is the fixed size of a checkpoint header.
const ckptHeaderBytes = 72

// ckptBlockRecBytes is the wire size of one checkpointed block record.
const ckptBlockRecBytes = 8 + 4 + 4 + 8 + 8 + 8 + 1 // id, seg, slot, succ, list, ts, flags

// ckptListRecBytes is the wire size of one checkpointed list record.
const ckptListRecBytes = 8 + 8 + 8 // id, first, last

func roundUp(n, unit int64) int64 {
	return (n + unit - 1) / unit * unit
}

// CkptRegionBytes returns the size reserved for one checkpoint region.
func (l Layout) CkptRegionBytes() int64 {
	n := int64(ckptHeaderBytes) +
		int64(l.MaxBlocks)*ckptBlockRecBytes +
		int64(l.MaxLists)*ckptListRecBytes
	return roundUp(n, SectorSize)
}

// SuperOff returns the byte offset of the superblock.
func (l Layout) SuperOff() int64 { return 0 }

// CkptOff returns the byte offset of checkpoint region i (0 or 1).
func (l Layout) CkptOff(i int) int64 {
	return superBytes + int64(i)*l.CkptRegionBytes()
}

// SegOff returns the byte offset of log segment s (0 <= s < NumSegs).
func (l Layout) SegOff(s int) int64 {
	return superBytes + 2*l.CkptRegionBytes() + int64(s)*int64(l.SegBytes)
}

// DiskBytes returns the total device capacity the layout requires.
func (l Layout) DiskBytes() int64 {
	return l.SegOff(l.NumSegs)
}

// ErrBadSuper reports a missing or corrupt superblock.
var ErrBadSuper = errors.New("seg: bad superblock")

// EncodeSuper encodes the superblock for layout l into a fresh
// superBytes-sized buffer.
func EncodeSuper(l Layout) []byte {
	buf := make([]byte, superBytes)
	binary.LittleEndian.PutUint32(buf[0:], superMagic)
	binary.LittleEndian.PutUint32(buf[4:], 1) // version
	binary.LittleEndian.PutUint32(buf[8:], uint32(l.BlockSize))
	binary.LittleEndian.PutUint32(buf[12:], uint32(l.SegBytes))
	binary.LittleEndian.PutUint32(buf[16:], uint32(l.NumSegs))
	binary.LittleEndian.PutUint32(buf[20:], uint32(l.MaxBlocks))
	binary.LittleEndian.PutUint32(buf[24:], uint32(l.MaxLists))
	crc := crc32.Checksum(buf[:28], crcTable)
	binary.LittleEndian.PutUint32(buf[28:], crc)
	return buf
}

// DecodeSuper decodes and validates a superblock.
func DecodeSuper(buf []byte) (Layout, error) {
	if len(buf) < superBytes {
		return Layout{}, fmt.Errorf("%w: short buffer", ErrBadSuper)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != superMagic {
		return Layout{}, fmt.Errorf("%w: bad magic", ErrBadSuper)
	}
	if got, want := binary.LittleEndian.Uint32(buf[28:]), crc32.Checksum(buf[:28], crcTable); got != want {
		return Layout{}, fmt.Errorf("%w: bad checksum", ErrBadSuper)
	}
	l := Layout{
		BlockSize: int(binary.LittleEndian.Uint32(buf[8:])),
		SegBytes:  int(binary.LittleEndian.Uint32(buf[12:])),
		NumSegs:   int(binary.LittleEndian.Uint32(buf[16:])),
		MaxBlocks: int(binary.LittleEndian.Uint32(buf[20:])),
		MaxLists:  int(binary.LittleEndian.Uint32(buf[24:])),
	}
	if err := l.Validate(); err != nil {
		return Layout{}, fmt.Errorf("%w: %v", ErrBadSuper, err)
	}
	return l, nil
}
