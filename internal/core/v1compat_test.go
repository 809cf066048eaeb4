package core

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

var updateFixtures = flag.Bool("update-fixtures", false, "regenerate checked-in testdata fixtures")

const v1FixturePath = "testdata/v1_image.bin.gz"

// v1FixtureHistory is the deterministic history baked into the v1
// fixture image: committed units, an abort, a deletion, an overwrite,
// and checkpoints mid-stream, then a flushed-but-not-checkpointed tail
// so mounting exercises both the legacy snapshot and log replay.
// Payloads are patterned (compressible) so the gzip fixture stays
// small.
func v1FixtureHistory(t *testing.T, d *LLD) {
	t.Helper()
	bsize := d.BlockSize()
	pay := func(tag byte, serial int) []byte {
		buf := make([]byte, bsize)
		for i := range buf {
			buf[i] = tag ^ byte(serial+i%7)
		}
		return buf
	}
	unit := func(tag byte, nBlocks int, abort bool) {
		aru, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		lst, err := d.NewList(aru)
		if err != nil {
			t.Fatal(err)
		}
		var blocks []BlockID
		for i := 0; i < nBlocks; i++ {
			b, err := d.NewBlock(aru, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(aru, b, pay(tag, i)); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
		if len(blocks) > 1 {
			if err := d.Write(aru, blocks[0], pay(tag, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if len(blocks) > 2 {
			if err := d.DeleteBlock(aru, blocks[2]); err != nil {
				t.Fatal(err)
			}
		}
		if abort {
			if err := d.AbortARU(aru); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := d.EndARU(aru); err != nil {
			t.Fatal(err)
		}
	}
	unit(0x11, 3, false)
	unit(0x22, 2, false)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	unit(0x33, 4, false)
	unit(0x44, 2, true) // aborted: must stay invisible
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail beyond the newest checkpoint: replayed from the log.
	unit(0x55, 3, false)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func v1FixtureParams() Params {
	return Params{Layout: testLayout(64), CheckpointEvery: -1, CkptCompactEvery: -1}
}

// buildV1Image produces the byte image an old (pre-chain) engine would
// leave: it runs the fixture history on the current engine with full
// checkpoints only, then rewrites each checkpoint region as a legacy
// v1 snapshot of the materialized tables — byte-for-byte the old
// single-record format.
func buildV1Image(t *testing.T) []byte {
	t.Helper()
	p := v1FixtureParams()
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	v1FixtureHistory(t, d)
	img := dev.Image()
	l := p.Layout
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		region := img[off : off+l.CkptRegionBytes()]
		ch, err := seg.DecodeCkptChain(region)
		if err != nil {
			continue
		}
		buf, err := seg.EncodeCheckpoint(l, ch.Materialize())
		if err != nil {
			t.Fatal(err)
		}
		for j := range region {
			region[j] = 0
		}
		copy(region, buf)
	}
	return img
}

// TestV1ImageCompat mounts the checked-in old-format fixture image —
// legacy v1 checkpoint snapshots plus a log tail — and verifies the
// current engine recovers it to exactly the state the same history
// produces on a fresh disk, then upgrades the region to a v2 chain on
// the first checkpoint. Run with -update-fixtures to regenerate the
// fixture.
func TestV1ImageCompat(t *testing.T) {
	p := v1FixtureParams()
	if *updateFixtures {
		img := buildV1Image(t)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		var gz bytes.Buffer
		w := gzip.NewWriter(&gz)
		if _, err := w.Write(img); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(v1FixturePath), gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, %d raw)", v1FixturePath, gz.Len(), len(img))
	}
	raw, err := os.ReadFile(filepath.FromSlash(v1FixturePath))
	if err != nil {
		t.Fatalf("fixture missing (regenerate with -update-fixtures): %v", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}

	// The fixture really is old-format: every valid region decodes as a
	// legacy single-record chain.
	l := p.Layout
	legacy := 0
	var newest uint64
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		ch, err := seg.DecodeCkptChain(img[off : off+l.CkptRegionBytes()])
		if err != nil {
			continue
		}
		if !ch.Legacy {
			t.Fatalf("fixture region %d is not legacy v1", i)
		}
		legacy++
		newest = max(newest, ch.Head().CkptTS)
	}
	if legacy == 0 {
		t.Fatal("fixture has no valid checkpoint region")
	}

	dev := disk.FromImage(img, disk.Geometry{})
	d, rpt, err := OpenReport(dev, p)
	if err != nil {
		t.Fatalf("legacy image does not mount: %v", err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	got := logicalState(t, d)

	// The recovered state must equal the same history on a fresh disk.
	want := func() diskState {
		dev2 := disk.NewMem(p.Layout.DiskBytes())
		d2, err := Format(dev2, p)
		if err != nil {
			t.Fatal(err)
		}
		v1FixtureHistory(t, d2)
		return logicalState(t, d2)
	}()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy image recovered to a different state: got %d lists, want %d", len(got), len(want))
	}
	if rpt.CheckpointTS != newest {
		t.Fatalf("recovery started from checkpoint ts %d, want the newest legacy snapshot's %d", rpt.CheckpointTS, newest)
	}
	if rpt.SegmentsReplayed == 0 {
		t.Fatal("recovery replayed no segments (log tail lost?)")
	}
	if rpt.DeltaChainDepth != 0 {
		t.Fatalf("legacy region reported chain depth %d", rpt.DeltaChainDepth)
	}

	// First checkpoint after a legacy mount must start a fresh v2 chain
	// (a delta has no base to land on in a v1 region).
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img2 := dev.Image()
	upgraded := false
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		ch, err := seg.DecodeCkptChain(img2[off : off+l.CkptRegionBytes()])
		if err != nil || ch.Legacy {
			continue
		}
		if !ch.Head().Base {
			t.Fatalf("post-upgrade region %d head is not a base", i)
		}
		upgraded = true
	}
	if !upgraded {
		t.Fatal("checkpoint after legacy mount did not write a v2 base")
	}
	d2, err := Open(disk.FromImage(dev.Image(), disk.Geometry{}), p)
	if err != nil {
		t.Fatal(err)
	}
	if got2 := logicalState(t, d2); !reflect.DeepEqual(got2, got) {
		t.Fatal("state changed across the v1-to-v2 upgrade")
	}
}
