package minixfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// crashLayout is small enough that every device write matters and the
// sweep stays fast.
func crashLayout() seg.Layout {
	return seg.Layout{
		BlockSize: 1024,
		SegBytes:  16384,
		NumSegs:   128,
		MaxBlocks: 8192,
		MaxLists:  4096,
	}
}

// sweep runs workload against a fault-injected device for every crash
// point up to the crash-free total, recovers, and calls verify on the
// remounted file system. Crash points that die before the file system
// is durable are skipped (an uninitialized disk is a consistent
// outcome).
func sweep(t *testing.T, policy DeletePolicy, workload func(fs *FS) error,
	verify func(t *testing.T, crash int64, fs *FS)) {
	sweepVariant(t, core.VariantNew, policy, workload, verify)
}

func sweepVariant(t *testing.T, variant core.Variant, policy DeletePolicy, workload func(fs *FS) error,
	verify func(t *testing.T, crash int64, fs *FS)) {
	t.Helper()
	layout := crashLayout()

	run := func(dev *disk.Sim) {
		ld, err := core.Format(dev, core.Params{Layout: layout, Variant: variant})
		if err != nil {
			return
		}
		fs, err := Mkfs(ld, Config{NumInodes: 512, Policy: policy})
		if err != nil {
			return
		}
		if err := fs.Sync(); err != nil {
			return
		}
		_ = workload(fs)
		_ = ld.Close()
	}

	clean := disk.NewMem(layout.DiskBytes())
	run(clean)
	total := clean.Stats().Writes
	if total < 10 {
		t.Fatalf("workload issued only %d writes", total)
	}

	for crash := int64(1); crash <= total; crash++ {
		dev := disk.NewMem(layout.DiskBytes())
		dev.SetFaultPlan(disk.FaultPlan{CrashAfterWrites: crash, TornSectors: int(crash % 7)})
		run(dev)
		if !dev.Crashed() {
			continue
		}
		ld, err := core.Open(dev.Recycle(), core.Params{})
		if err != nil {
			continue // died inside Format
		}
		if err := ld.VerifyInternal(); err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		fs, err := Mount(ld, policy)
		if err != nil {
			continue // mkfs never became durable
		}
		if _, err := fs.Fsck(); err != nil {
			t.Fatalf("crash %d: fsck: %v", crash, err)
		}
		verify(t, crash, fs)
	}
}

// TestCrashSweepRemove: files are created (durably), then removed with
// interspersed syncs; at any crash point after the creating sync each
// file is either fully present with intact contents or fully gone.
// Before that sync returned, the create and the write of each file are
// two units, so recovery keeps a prefix of them: files f0..f(h-1) full,
// fh full or (create kept, write not) empty, every later file absent.
// A state outside that prefix, e.g. an early file empty while a later
// one is full, means recovery replayed a later unit without an earlier.
func TestCrashSweepRemove(t *testing.T) {
	for _, pol := range []DeletePolicy{DeleteBlocksFirst, DeleteListFirst} {
		t.Run(pol.String(), func(t *testing.T) {
			const files = 6
			body := func(i int) []byte {
				return bytes.Repeat([]byte{byte(0x30 + i)}, 700+i*300)
			}
			created := false // the creating sync returned before the crash
			workload := func(fs *FS) error {
				created = false
				for i := 0; i < files; i++ {
					f, err := fs.Create(fmt.Sprintf("/f%d", i))
					if err != nil {
						return err
					}
					if _, err := f.WriteAt(body(i), 0); err != nil {
						return err
					}
				}
				if err := fs.Sync(); err != nil {
					return err
				}
				created = true
				for i := 0; i < files; i++ {
					if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
						return err
					}
					if i%2 == 1 {
						if err := fs.Sync(); err != nil {
							return err
						}
					}
				}
				return fs.Sync()
			}
			sweep(t, pol, workload, func(t *testing.T, crash int64, fs *FS) {
				contents := make([][]byte, files) // nil: file absent
				for i := 0; i < files; i++ {
					f, err := fs.Open(fmt.Sprintf("/f%d", i))
					if errors.Is(err, ErrNotExist) {
						continue // fully removed, or never created
					}
					if err != nil {
						t.Fatalf("crash %d: open f%d: %v", crash, i, err)
					}
					got, err := f.ReadAll()
					if err != nil {
						t.Fatalf("crash %d: read f%d: %v", crash, i, err)
					}
					contents[i] = append([]byte{}, got...)
				}
				if !created {
					last := -1 // highest-index file present
					for i := range contents {
						if contents[i] != nil {
							last = i
						}
					}
					for i := 0; i < last; i++ {
						if contents[i] == nil {
							t.Fatalf("crash %d: f%d absent but later f%d present", crash, i, last)
						}
					}
					if last >= 0 && len(contents[last]) == 0 {
						contents[last] = nil // create kept, write not
					}
				}
				for i, got := range contents {
					if got != nil && !bytes.Equal(got, body(i)) {
						t.Fatalf("crash %d: f%d has partial contents (%d bytes)", crash, i, len(got))
					}
				}
			})
		})
	}
}

// TestCrashSweepRename: at any crash point exactly one of the two names
// exists, with intact contents — never both, never neither.
func TestCrashSweepRename(t *testing.T) {
	payload := bytes.Repeat([]byte("rename me "), 120)
	workload := func(fs *FS) error {
		f, err := fs.Create("/old")
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			return err
		}
		if err := fs.Mkdir("/dir"); err != nil {
			return err
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		if err := fs.Rename("/old", "/dir/new"); err != nil {
			return err
		}
		return fs.Sync()
	}
	sweep(t, DeleteBlocksFirst, workload, func(t *testing.T, crash int64, fs *FS) {
		_, errOld := fs.Stat("/old")
		_, errNew := fs.Stat("/dir/new")
		oldThere := errOld == nil
		newThere := errNew == nil
		switch {
		case oldThere && newThere:
			t.Fatalf("crash %d: rename duplicated the file", crash)
		case !oldThere && !newThere:
			// Only acceptable before the create became durable.
			if _, err := fs.Stat("/dir"); err == nil {
				t.Fatalf("crash %d: rename lost the file", crash)
			}
		case oldThere:
			f, _ := fs.Open("/old")
			if got, _ := f.ReadAll(); !bytes.Equal(got, payload) {
				t.Fatalf("crash %d: /old corrupted", crash)
			}
		default:
			f, _ := fs.Open("/dir/new")
			if got, _ := f.ReadAll(); !bytes.Equal(got, payload) {
				t.Fatalf("crash %d: /dir/new corrupted", crash)
			}
		}
	})
}

// TestCrashSweepTruncate: the file is either at its original or its
// truncated size, with the surviving prefix intact.
func TestCrashSweepTruncate(t *testing.T) {
	payload := bytes.Repeat([]byte{0xEE}, 5*1024)
	const cut = 1500
	workload := func(fs *FS) error {
		f, err := fs.Create("/t")
		if err != nil {
			return err
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			return err
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		if err := f.Truncate(cut); err != nil {
			return err
		}
		return fs.Sync()
	}
	sweep(t, DeleteBlocksFirst, workload, func(t *testing.T, crash int64, fs *FS) {
		f, err := fs.Open("/t")
		if errors.Is(err, ErrNotExist) {
			return // create not durable yet
		}
		if err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		got, err := f.ReadAll()
		if err != nil {
			t.Fatalf("crash %d: read: %v", crash, err)
		}
		switch len(got) {
		case len(payload):
			if !bytes.Equal(got, payload) {
				t.Fatalf("crash %d: original contents corrupted", crash)
			}
		case cut:
			if !bytes.Equal(got, payload[:cut]) {
				t.Fatalf("crash %d: truncated prefix corrupted", crash)
			}
		default:
			t.Fatalf("crash %d: file has %d bytes, want %d or %d", crash, len(got), len(payload), cut)
		}
	})
}

// TestCrashSweepRemoveOldVariant repeats the removal sweep on the 1993
// sequential-ARU build: its in-place committed-state updates must be
// just as recovery-atomic.
func TestCrashSweepRemoveOldVariant(t *testing.T) {
	const files = 5
	body := func(i int) []byte {
		return bytes.Repeat([]byte{byte(0x60 + i)}, 900+i*250)
	}
	workload := func(fs *FS) error {
		for i := 0; i < files; i++ {
			f, err := fs.Create(fmt.Sprintf("/f%d", i))
			if err != nil {
				return err
			}
			if _, err := f.WriteAt(body(i), 0); err != nil {
				return err
			}
		}
		if err := fs.Sync(); err != nil {
			return err
		}
		for i := 0; i < files; i++ {
			if err := fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
				return err
			}
			if err := fs.Sync(); err != nil {
				return err
			}
		}
		return nil
	}
	sweepVariant(t, core.VariantOld, DeleteBlocksFirst, workload,
		func(t *testing.T, crash int64, fs *FS) {
			for i := 0; i < files; i++ {
				f, err := fs.Open(fmt.Sprintf("/f%d", i))
				if errors.Is(err, ErrNotExist) {
					continue
				}
				if err != nil {
					t.Fatalf("crash %d: open f%d: %v", crash, i, err)
				}
				got, err := f.ReadAll()
				if err != nil {
					t.Fatalf("crash %d: read f%d: %v", crash, i, err)
				}
				if !bytes.Equal(got, body(i)) {
					t.Fatalf("crash %d: f%d torn (%d bytes)", crash, i, len(got))
				}
			}
		})
}
