package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"aru"
)

// fs-churn: one goroutine runs the paper's small-file mix through
// minixfs. Set-up creates fcPopulated files (about eight times the
// block cache); the load then creates and removes at equal rates, so
// the population random-walks around that size and the load is the
// same from its first window to its last. The op count is fixed per
// run length, so a seed gives the same op sequence, and the same engine
// and device counts, every run.
const (
	fcSegs      = 192 // 96 MB device, about a third of it live
	fcInodes    = 16384
	fcDirs      = 64
	fcFileBytes = 1024
	fcSyncEvery = 64
	fcOpsPerSec = 8000 // ops per second of --seconds
	fcRead      = 0.35 // op shares: read, and create and remove half each of the rest
	fcPopulated = 8000
	fcWinWidth  = 500 * time.Millisecond
	fcTailOps   = 1728 // the log tail before the crash: 27 Syncs
)

type fcFile struct {
	num  uint64
	path string
}

type fcRig struct {
	img  *image
	d    *aru.Disk
	fs   *aru.FS
	live []fcFile
	next uint64 // last file number handed out
	buf  []byte
}

func (c *config) fcSetup(n int) (*fcRig, error) {
	layout := aru.DefaultLayout(fcSegs)
	img, err := c.newImage(fmt.Sprintf("fs-churn-%d.img", n), layout.DiskBytes())
	if err != nil {
		return nil, err
	}
	r := &fcRig{img: img, buf: make([]byte, fcFileBytes)}
	if err := r.populate(layout); err != nil {
		img.remove()
		return nil, fmt.Errorf("populate: %w", err)
	}
	return r, nil
}

func (r *fcRig) populate(layout aru.Layout) error {
	var err error
	if r.d, err = aru.Format(r.img.shim, aru.Params{Layout: layout}); err != nil {
		return err
	}
	if r.fs, err = aru.MkFS(r.d, aru.FSConfig{NumInodes: fcInodes}); err != nil {
		return err
	}
	for i := 0; i < fcDirs; i++ {
		if err := r.fs.Mkdir(fmt.Sprintf("/d%02d", i)); err != nil {
			return err
		}
	}
	for len(r.live) < fcPopulated {
		if err := r.create(); err != nil {
			return err
		}
		if len(r.live)%fcSyncEvery == 0 {
			if err := r.fs.Sync(); err != nil {
				return err
			}
		}
	}
	return r.fs.Sync()
}

// create makes the next file and writes its self-describing 1 KB.
func (r *fcRig) create() error {
	r.next++
	f := fcFile{num: r.next, path: fmt.Sprintf("/d%02d/f%d", r.next%fcDirs, r.next)}
	fillPayload(r.buf, f.num, 0)
	h, err := r.fs.Create(f.path)
	if err != nil {
		return err
	}
	if _, err := h.WriteAt(r.buf, 0); err != nil {
		return err
	}
	r.live = append(r.live, f)
	return nil
}

func runFSChurn(c *config, tr *tracer) (*result, error) {
	res := &result{}
	var rig *fcRig
	for i := 0; i < c.setups(tr); i++ {
		if rig != nil {
			rig.img.remove()
			time.Sleep(repGap)
		}
		err := res.setup.time(func() (err error) {
			rig, err = c.fcSetup(i)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	defer rig.img.remove()

	rng := rand.New(rand.NewSource(c.seed))
	nops := int64(c.duration().Seconds() * fcOpsPerSec)
	rbuf := make([]byte, fcFileBytes)
	sync := func(op int64) error {
		s := tr.now()
		err := rig.fs.Sync()
		fsSpan(tr, spFSSync, op, s)
		return err
	}

	st0, dev0 := rig.d.Stats(), rig.img.shim.c.snapshot()
	rig.img.shim.tr.Store(tr)
	res.tr, res.t0 = tr, tr.now()
	start := time.Now()
	sampler := sampleSteal(start, fcWinWidth)
	win := newWindows(start, fcWinWidth)
	var opErr error
	for n := int64(0); n < nops; n++ {
		res.attempted++
		t0 := time.Now()
		created, err := rig.op(rng, rbuf, tr, n)
		now := time.Now()
		win.done(now, 1)
		win.sample(now, now.Sub(t0))
		if created {
			res.userBlks++
		}
		if err == nil && (n+1)%fcSyncEvery == 0 {
			err = sync(n)
		}
		if err != nil {
			res.failed++
			opErr = err
			break // the live set is no longer known
		}
		res.ops++
	}
	if opErr == nil && nops%fcSyncEvery != 0 {
		opErr = sync(nops - 1)
	}
	res.elapsed = time.Since(start)
	steal := sampler.end(res.elapsed)
	res.t1 = tr.now()
	rig.img.shim.tr.Store(nil)
	res.st = statsDelta(rig.d.Stats(), st0)
	res.dev = rig.img.shim.c.snapshot().sub(dev0)
	res.setWindows([]*windows{win}, steal)
	res.payload = res.userBlks * fcFileBytes
	res.heap = liveHeap()
	if opErr != nil {
		if errors.Is(opErr, errWrong) {
			return res, opErr
		}
		res.firstErr = opErr
		return res, nil // counted in failed; the image state is unknown
	}

	// The tail: fcTailOps more ops of the same seeded mix, with the same
	// Sync cadence, ending on a Sync.
	tail := func() error {
		for n := int64(0); n < fcTailOps; n++ {
			if _, err := rig.op(rng, rbuf, nil, n); err != nil {
				return err
			}
			if (n+1)%fcSyncEvery == 0 {
				if err := rig.fs.Sync(); err != nil {
					return err
				}
			}
		}
		err := rig.fs.Sync()
		rig.d, rig.fs = nil, nil
		return err
	}
	var err error
	res.recov, res.rep, err = c.crashAndRecover(rig.d, rig.img, tail, func(d *aru.Disk) error {
		return fcVerify(d, rig.live, rbuf)
	})
	return res, err
}

// op runs op n of the mix, chosen by rng: create a file, read a
// uniformly random live one and check its contents, or remove one.
// It reports whether it created a file.
func (r *fcRig) op(rng *rand.Rand, rbuf []byte, tr *tracer, n int64) (created bool, err error) {
	x := rng.Float64()
	s := tr.now()
	switch {
	case len(r.live) == 0 || x < (1-fcRead)/2:
		err = r.create()
		fsSpan(tr, spFSCreate, n, s)
		return err == nil, err
	case x < (1+fcRead)/2:
		f := r.live[rng.Intn(len(r.live))]
		var h *aru.File
		var got int
		if h, err = r.fs.Open(f.path); err == nil {
			got, err = readFile(h, rbuf)
		}
		fsSpan(tr, spFSRead, n, s)
		if err == nil {
			if id, _, ok := checkPayload(rbuf); got != fcFileBytes || !ok || id != f.num {
				err = wrongf("%s read %d bytes of file %d (intact %v), want file %d", f.path, got, id, ok, f.num)
			}
		}
		return false, err
	default:
		j := rng.Intn(len(r.live))
		err = r.fs.Remove(r.live[j].path)
		fsSpan(tr, spFSRemove, n, s)
		if err == nil {
			r.live[j] = r.live[len(r.live)-1]
			r.live = r.live[:len(r.live)-1]
		}
		return false, err
	}
}

func fsSpan(tr *tracer, name spanName, op int64, s int64) {
	tr.add(span{name: name, start: s, end: tr.now(), op: op, conn: 0})
}

// fcVerify mounts the recovered file system and checks it: Fsck is
// clean, each directory lists exactly the live files, and every live
// file holds its own contents.
func fcVerify(d *aru.Disk, live []fcFile, buf []byte) error {
	fs, err := aru.MountFS(d, aru.DeleteBlocksFirst)
	if err != nil {
		return err
	}
	rep, err := fs.Fsck()
	if err != nil {
		return wrongf("fsck: %v", err)
	}
	if rep.FilesFound != len(live) {
		return wrongf("fsck found %d files, want %d", rep.FilesFound, len(live))
	}
	want := make([][]string, fcDirs)
	for _, f := range live {
		want[f.num%fcDirs] = append(want[f.num%fcDirs], f.path)
	}
	for i := range want {
		dir := fmt.Sprintf("/d%02d", i)
		ents, err := fs.ReadDir(dir)
		if err != nil {
			return err
		}
		got := make([]string, 0, len(ents))
		for _, e := range ents {
			got = append(got, dir+"/"+e.Name)
		}
		sort.Strings(got)
		sort.Strings(want[i])
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			return wrongf("%s lists %d files, want %d", dir, len(got), len(want[i]))
		}
	}
	for _, f := range live {
		h, err := fs.Open(f.path)
		if err != nil {
			return err
		}
		n, err := readFile(h, buf)
		if err != nil {
			return err
		}
		if id, _, ok := checkPayload(buf); n != fcFileBytes || !ok || id != f.num {
			return wrongf("%s holds %d bytes of file %d (intact %v) after recovery", f.path, n, id, ok)
		}
	}
	return nil
}

// readFile reads a whole small file; reaching its end is not an error.
func readFile(h *aru.File, buf []byte) (int, error) {
	n, err := h.ReadAt(buf, 0)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}
