package core

import (
	"path/filepath"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// TestReformatUsedImage: Format over a used image yields an empty disk
// with its full capacity, on the simulator and on a real file. Before
// Format wiped both checkpoint regions whole, the previous lifetime's
// delta records followed the fresh base record (the first of them
// names PrevTS 1, the fresh base's CkptTS), so a re-formatted disk
// mounted with the old lists and blocks and ran out of space early.
func TestReformatUsedImage(t *testing.T) {
	l := seg.DefaultLayout(48)
	p := Params{Layout: l, CheckpointEvery: 4}
	const blocks = 4000 // two thirds of the log, across several checkpoints

	devs := map[string]func(t *testing.T) disk.Disk{
		"sim": func(t *testing.T) disk.Disk { return disk.NewMem(l.DiskBytes()) },
		"file": func(t *testing.T) disk.Disk {
			f, err := disk.CreateFile(filepath.Join(t.TempDir(), "dev.img"), l.DiskBytes())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
	for name, mk := range devs {
		t.Run(name, func(t *testing.T) {
			dev := mk(t)
			for life := 1; life <= 3; life++ {
				d, err := Format(dev, p)
				if err != nil {
					t.Fatalf("lifetime %d: Format: %v", life, err)
				}
				if lists, err := d.Lists(0); err != nil || len(lists) != 0 {
					t.Fatalf("lifetime %d: re-formatted disk has lists %v (%v)", life, lists, err)
				}
				lst, err := d.NewList(0)
				if err != nil {
					t.Fatalf("lifetime %d: NewList: %v", life, err)
				}
				data := make([]byte, l.BlockSize)
				pred := NilBlock
				for i := 0; i < blocks; i++ {
					b, err := d.NewBlock(0, lst, pred)
					if err != nil {
						t.Fatalf("lifetime %d: NewBlock %d: %v", life, i, err)
					}
					data[0], data[1] = byte(i), byte(life)
					if err := d.Write(0, b, data); err != nil {
						t.Fatalf("lifetime %d: Write %d: %v", life, i, err)
					}
					pred = b
				}
				if err := d.Flush(); err != nil {
					t.Fatal(err)
				}
				if st := d.Stats(); st.Checkpoints < 2 {
					t.Fatalf("lifetime %d: only %d checkpoints; the test needs delta records", life, st.Checkpoints)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
