package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Incremental checkpoint chains (format v2).
//
// A checkpoint region no longer holds a single monolithic table
// snapshot: it holds a *chain* of sector-aligned records — one base
// record (a full snapshot) followed by zero or more delta records,
// each carrying only the block/list records dirtied since the previous
// record in the chain. Recovery decodes the longest valid prefix of
// the chain and materializes base+deltas into one Checkpoint.
//
// Chain integrity under crashes comes from three properties:
//
//   - every record is independently CRC-protected (header and
//     payload), so a torn delta write can only truncate the chain at a
//     record boundary, never corrupt it silently;
//   - each delta names the CkptTS of its predecessor (PrevTS), and
//     CkptTS is strictly monotonic per disk, so a CRC-valid record
//     left over from an earlier chain lifetime in the same region can
//     never splice into a newer chain;
//   - a truncated chain is always safe: an older chain head only means
//     recovery starts from an older FlushedSeq and replays more
//     segments (the segments are still there — reuse is gated on the
//     *synced* chain head).
//
// When a chain grows past the compaction threshold, or its region runs
// out of room, the writer compacts: it writes a fresh base into the
// other region (build-then-publish: the new base only wins once it is
// durable, because recovery picks the region whose head has the larger
// CkptTS) and the chain continues there. The v1 single-record format
// decodes as a legacy one-record chain, so old images still mount.

// ckptChainMagic marks a v2 chain record ("LLC2"). Distinct from
// ckptMagic so v1 regions and v2 regions are unambiguous at offset 0.
const ckptChainMagic = 0x32434c4c

// ckptRecHeaderBytes is the fixed size of one chain-record header.
const ckptRecHeaderBytes = 88

// ckptListRecV2Bytes is the wire size of a v2 checkpointed list
// record: id, first, last, plus the structural timestamp that v1 did
// not carry.
const ckptListRecV2Bytes = 8 + 8 + 8 + 8

// ckptRecFlagBase marks the record as a chain base (full snapshot).
const ckptRecFlagBase = 1

// CkptRec is one record of an incremental checkpoint chain: a full
// base snapshot (Base) or a delta carrying only the records dirtied
// since the previous chain record. Scalars (FlushedSeq and the
// allocator seeds) are carried by every record; the newest record's
// values win.
type CkptRec struct {
	Base   bool
	CkptTS uint64 // orders records; strictly monotonic per disk
	PrevTS uint64 // CkptTS of the predecessor record (0 for a base)

	FlushedSeq uint64
	NextTS     uint64
	NextBlock  BlockID
	NextList   ListID
	NextARU    ARUID

	// Blocks and Lists are upserts; DelBlocks and DelLists name
	// identifiers de-allocated since the previous record. A base has
	// empty deletion sets.
	Blocks    []BlockRec
	Lists     []ListRec
	DelBlocks []BlockID
	DelLists  []ListID
}

// WireBytes returns the sector-rounded on-disk size of r.
func (r CkptRec) WireBytes() int64 {
	n := int64(ckptRecHeaderBytes) +
		int64(len(r.Blocks))*ckptBlockRecBytes +
		int64(len(r.Lists))*ckptListRecV2Bytes +
		int64(len(r.DelBlocks))*8 +
		int64(len(r.DelLists))*8
	return roundUp(n, SectorSize)
}

// EncodeCkptRec encodes one chain record for layout l into a fresh
// sector-rounded buffer. Table sizes are validated against the layout
// bounds so a record can never outgrow its region.
func EncodeCkptRec(l Layout, r CkptRec) ([]byte, error) {
	if len(r.Blocks) > l.MaxBlocks || len(r.DelBlocks) > l.MaxBlocks {
		return nil, fmt.Errorf("seg: checkpoint record has %d/%d block records, layout allows %d",
			len(r.Blocks), len(r.DelBlocks), l.MaxBlocks)
	}
	if len(r.Lists) > l.MaxLists || len(r.DelLists) > l.MaxLists {
		return nil, fmt.Errorf("seg: checkpoint record has %d/%d list records, layout allows %d",
			len(r.Lists), len(r.DelLists), l.MaxLists)
	}
	if r.Base && (len(r.DelBlocks) != 0 || len(r.DelLists) != 0) {
		return nil, errors.New("seg: base checkpoint record cannot carry deletions")
	}
	buf := make([]byte, r.WireBytes())
	h := buf[:ckptRecHeaderBytes]
	binary.LittleEndian.PutUint32(h[0:], ckptChainMagic)
	var flags uint32
	if r.Base {
		flags |= ckptRecFlagBase
	}
	binary.LittleEndian.PutUint32(h[4:], flags)
	binary.LittleEndian.PutUint64(h[8:], r.CkptTS)
	binary.LittleEndian.PutUint64(h[16:], r.PrevTS)
	binary.LittleEndian.PutUint64(h[24:], r.FlushedSeq)
	binary.LittleEndian.PutUint64(h[32:], r.NextTS)
	binary.LittleEndian.PutUint64(h[40:], uint64(r.NextBlock))
	binary.LittleEndian.PutUint64(h[48:], uint64(r.NextList))
	binary.LittleEndian.PutUint64(h[56:], uint64(r.NextARU))
	binary.LittleEndian.PutUint32(h[64:], uint32(len(r.Blocks)))
	binary.LittleEndian.PutUint32(h[68:], uint32(len(r.Lists)))
	binary.LittleEndian.PutUint32(h[72:], uint32(len(r.DelBlocks)))
	binary.LittleEndian.PutUint32(h[76:], uint32(len(r.DelLists)))

	p := buf[ckptRecHeaderBytes:]
	off := 0
	for _, b := range r.Blocks {
		binary.LittleEndian.PutUint64(p[off:], uint64(b.ID))
		binary.LittleEndian.PutUint32(p[off+8:], b.Seg)
		binary.LittleEndian.PutUint32(p[off+12:], b.Slot)
		binary.LittleEndian.PutUint64(p[off+16:], uint64(b.Succ))
		binary.LittleEndian.PutUint64(p[off+24:], uint64(b.List))
		binary.LittleEndian.PutUint64(p[off+32:], b.TS)
		if b.HasData {
			p[off+40] = 1
		}
		off += ckptBlockRecBytes
	}
	for _, li := range r.Lists {
		binary.LittleEndian.PutUint64(p[off:], uint64(li.ID))
		binary.LittleEndian.PutUint64(p[off+8:], uint64(li.First))
		binary.LittleEndian.PutUint64(p[off+16:], uint64(li.Last))
		binary.LittleEndian.PutUint64(p[off+24:], li.TS)
		off += ckptListRecV2Bytes
	}
	for _, id := range r.DelBlocks {
		binary.LittleEndian.PutUint64(p[off:], uint64(id))
		off += 8
	}
	for _, id := range r.DelLists {
		binary.LittleEndian.PutUint64(p[off:], uint64(id))
		off += 8
	}
	payloadCRC := crc32.Checksum(p[:off], crcTable)
	binary.LittleEndian.PutUint32(h[80:], payloadCRC)
	headerCRC := crc32.Checksum(h[:84], crcTable)
	binary.LittleEndian.PutUint32(h[84:], headerCRC)
	return buf, nil
}

// DecodeCkptRec decodes and validates one chain record at the start of
// buf, returning the record and its sector-rounded wire length (the
// offset of the next record in the chain).
func DecodeCkptRec(buf []byte) (CkptRec, int64, error) {
	nb, nl, ndb, ndl, err := ckptRecHeader(buf)
	if err != nil {
		return CkptRec{}, 0, err
	}
	h := buf[:ckptRecHeaderBytes]
	payloadLen := nb*ckptBlockRecBytes + nl*ckptListRecV2Bytes + (ndb+ndl)*8
	if int64(ckptRecHeaderBytes)+payloadLen > int64(len(buf)) {
		return CkptRec{}, 0, fmt.Errorf("%w: chain payload does not fit (%d blocks, %d lists, %d+%d deletions)",
			ErrBadCheckpoint, nb, nl, ndb, ndl)
	}
	p := buf[ckptRecHeaderBytes : int64(ckptRecHeaderBytes)+payloadLen]
	if got, want := binary.LittleEndian.Uint32(h[80:]), crc32.Checksum(p, crcTable); got != want {
		return CkptRec{}, 0, fmt.Errorf("%w: bad chain payload checksum", ErrBadCheckpoint)
	}
	flags := binary.LittleEndian.Uint32(h[4:])
	r := CkptRec{
		Base:       flags&ckptRecFlagBase != 0,
		CkptTS:     binary.LittleEndian.Uint64(h[8:]),
		PrevTS:     binary.LittleEndian.Uint64(h[16:]),
		FlushedSeq: binary.LittleEndian.Uint64(h[24:]),
		NextTS:     binary.LittleEndian.Uint64(h[32:]),
		NextBlock:  BlockID(binary.LittleEndian.Uint64(h[40:])),
		NextList:   ListID(binary.LittleEndian.Uint64(h[48:])),
		NextARU:    ARUID(binary.LittleEndian.Uint64(h[56:])),
	}
	off := int64(0)
	for i := int64(0); i < nb; i++ {
		r.Blocks = append(r.Blocks, BlockRec{
			ID:      BlockID(binary.LittleEndian.Uint64(p[off:])),
			Seg:     binary.LittleEndian.Uint32(p[off+8:]),
			Slot:    binary.LittleEndian.Uint32(p[off+12:]),
			Succ:    BlockID(binary.LittleEndian.Uint64(p[off+16:])),
			List:    ListID(binary.LittleEndian.Uint64(p[off+24:])),
			TS:      binary.LittleEndian.Uint64(p[off+32:]),
			HasData: p[off+40] != 0,
		})
		off += ckptBlockRecBytes
	}
	for i := int64(0); i < nl; i++ {
		r.Lists = append(r.Lists, ListRec{
			ID:    ListID(binary.LittleEndian.Uint64(p[off:])),
			First: BlockID(binary.LittleEndian.Uint64(p[off+8:])),
			Last:  BlockID(binary.LittleEndian.Uint64(p[off+16:])),
			TS:    binary.LittleEndian.Uint64(p[off+24:]),
		})
		off += ckptListRecV2Bytes
	}
	for i := int64(0); i < ndb; i++ {
		r.DelBlocks = append(r.DelBlocks, BlockID(binary.LittleEndian.Uint64(p[off:])))
		off += 8
	}
	for i := int64(0); i < ndl; i++ {
		r.DelLists = append(r.DelLists, ListID(binary.LittleEndian.Uint64(p[off:])))
		off += 8
	}
	return r, roundUp(int64(ckptRecHeaderBytes)+payloadLen, SectorSize), nil
}

// CkptChain is the decoded contents of one checkpoint region: the
// longest valid record prefix, base first.
type CkptChain struct {
	Recs []CkptRec
	// NextOff is the region-relative byte offset where the next delta
	// record would be appended.
	NextOff int64
	// Legacy reports a v1 single-record region. Deltas can never be
	// appended to a legacy region; the next checkpoint must start a
	// fresh v2 chain.
	Legacy bool
}

// Head returns the newest record of the chain.
func (c CkptChain) Head() CkptRec {
	return c.Recs[len(c.Recs)-1]
}

// Depth returns the number of delta records on top of the base.
func (c CkptChain) Depth() int {
	return len(c.Recs) - 1
}

// CkptRecLen returns the sector-rounded wire length of the chain record
// whose header starts hdr (at least one sector), or false if hdr is not
// a valid chain-record header. It lets a reader fetch a region's chain
// record by record instead of the whole, mostly unused, region.
func CkptRecLen(hdr []byte) (int64, bool) {
	nb, nl, ndb, ndl, err := ckptRecHeader(hdr)
	if err != nil {
		return 0, false
	}
	n := int64(ckptRecHeaderBytes) + nb*ckptBlockRecBytes + nl*ckptListRecV2Bytes + (ndb+ndl)*8
	return roundUp(n, SectorSize), true
}

// ckptRecHeader validates the header of the chain record at the start
// of buf and returns its block, list, block-deletion and list-deletion
// counts.
func ckptRecHeader(buf []byte) (nb, nl, ndb, ndl int64, err error) {
	if len(buf) < ckptRecHeaderBytes {
		return 0, 0, 0, 0, fmt.Errorf("%w: short buffer", ErrBadCheckpoint)
	}
	h := buf[:ckptRecHeaderBytes]
	if binary.LittleEndian.Uint32(h[0:]) != ckptChainMagic {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad chain magic", ErrBadCheckpoint)
	}
	if got, want := binary.LittleEndian.Uint32(h[84:]), crc32.Checksum(h[:84], crcTable); got != want {
		return 0, 0, 0, 0, fmt.Errorf("%w: bad chain header checksum", ErrBadCheckpoint)
	}
	return int64(binary.LittleEndian.Uint32(h[64:])), int64(binary.LittleEndian.Uint32(h[68:])),
		int64(binary.LittleEndian.Uint32(h[72:])), int64(binary.LittleEndian.Uint32(h[76:])), nil
}

// DecodeCkptChain decodes one checkpoint region as a chain: a v2 base
// followed by the longest prefix of valid, correctly linked deltas —
// or a legacy v1 snapshot, returned as a one-record chain. A torn or
// stale record simply ends the chain; it never invalidates the prefix
// before it.
func DecodeCkptChain(region []byte) (CkptChain, error) {
	base, n, err := DecodeCkptRec(region)
	if err != nil {
		// Not a v2 chain: try the legacy single-snapshot format.
		ck, v1err := DecodeCheckpoint(region)
		if v1err != nil {
			return CkptChain{}, err
		}
		return CkptChain{Recs: []CkptRec{{
			Base:       true,
			CkptTS:     ck.CkptTS,
			FlushedSeq: ck.FlushedSeq,
			NextTS:     ck.NextTS,
			NextBlock:  ck.NextBlock,
			NextList:   ck.NextList,
			NextARU:    ck.NextARU,
			Blocks:     ck.Blocks,
			Lists:      ck.Lists,
		}}, Legacy: true}, nil
	}
	if !base.Base {
		// A delta at offset 0 is a remnant of an older layout or a
		// mis-write; without its base it is unusable.
		return CkptChain{}, fmt.Errorf("%w: chain starts with a delta record", ErrBadCheckpoint)
	}
	c := CkptChain{Recs: []CkptRec{base}, NextOff: n}
	for c.NextOff+ckptRecHeaderBytes <= int64(len(region)) {
		rec, n, err := DecodeCkptRec(region[c.NextOff:])
		if err != nil {
			break // torn, unwritten, or stale tail: chain ends here
		}
		prev := c.Head()
		if rec.Base || rec.PrevTS != prev.CkptTS || rec.CkptTS <= prev.CkptTS {
			// A CRC-valid record from an earlier chain lifetime in this
			// region: PrevTS linkage rejects it (CkptTS is strictly
			// monotonic per disk, so a stale record can never name the
			// current head as its predecessor).
			break
		}
		c.Recs = append(c.Recs, rec)
		c.NextOff += n
	}
	return c, nil
}

// Materialize folds the chain into one full Checkpoint: the base
// tables with every delta's upserts and deletions applied in order,
// scalars from the head. Tables come out in canonical ID order.
func (c CkptChain) Materialize() Checkpoint {
	blocks := make(map[BlockID]BlockRec)
	lists := make(map[ListID]ListRec)
	for _, r := range c.Recs {
		for _, b := range r.Blocks {
			blocks[b.ID] = b
		}
		for _, li := range r.Lists {
			lists[li.ID] = li
		}
		for _, id := range r.DelBlocks {
			delete(blocks, id)
		}
		for _, id := range r.DelLists {
			delete(lists, id)
		}
	}
	head := c.Head()
	ck := Checkpoint{
		CkptTS:     head.CkptTS,
		FlushedSeq: head.FlushedSeq,
		NextTS:     head.NextTS,
		NextBlock:  head.NextBlock,
		NextList:   head.NextList,
		NextARU:    head.NextARU,
		Blocks:     make([]BlockRec, 0, len(blocks)),
		Lists:      make([]ListRec, 0, len(lists)),
	}
	for _, b := range blocks {
		ck.Blocks = append(ck.Blocks, b)
	}
	for _, li := range lists {
		ck.Lists = append(ck.Lists, li)
	}
	ck.SortTables()
	return ck
}
