package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aru"
)

// read-mvcc: closed loop, one in-process worker per CPU, committed
// point reads over a working set that fits the engine's block cache,
// with a one-block overwrite ARU (EndARU only) in place of every
// rmWriteNth-th read.
const (
	rmSegs      = 64
	rmBlocks    = 768 // ¾ of the default 1024-block cache
	rmWriteNth  = 64
	rmLatNth    = 8  // time every 8th read exactly
	rmTraceNth  = 16 // trace every 16th read (overwrites always)
	rmFillARU   = 64
	rmClockNth  = 64 // check the deadline every 64 ops
	rmWinWidth  = 500 * time.Millisecond
	rmFirstVers = 1
	// The log tail before the crash: one-block overwrites, about 27
	// segments' worth. rmTailStream is its seed stream, apart from the
	// workers' streams 0..nproc-1.
	rmTailWrites = 3600
	rmTailStream = 999
)

type rmRig struct {
	img    *image
	d      *aru.Disk
	blocks []aru.BlockID
	ver    []uint64 // committed version; entry i is written only by worker i%workers
}

func (c *config) rmSetup(n int) (*rmRig, error) {
	layout := aru.DefaultLayout(rmSegs)
	img, err := c.newImage(fmt.Sprintf("read-mvcc-%d.img", n), layout.DiskBytes())
	if err != nil {
		return nil, err
	}
	r := &rmRig{img: img}
	if err := r.populate(layout); err != nil {
		img.remove()
		return nil, fmt.Errorf("populate: %w", err)
	}
	return r, nil
}

func (r *rmRig) populate(layout aru.Layout) error {
	var err error
	if r.d, err = aru.Format(r.img.shim, aru.Params{Layout: layout}); err != nil {
		return err
	}
	lst, err := r.d.NewList(aru.Simple)
	if err != nil {
		return err
	}
	buf := make([]byte, layout.BlockSize)
	pred := aru.NilBlock
	for len(r.blocks) < rmBlocks {
		a, err := r.d.BeginARU()
		if err != nil {
			return err
		}
		for j := 0; j < rmFillARU; j++ {
			b, err := r.d.NewBlock(a, lst, pred)
			if err != nil {
				return err
			}
			fillPayload(buf, uint64(b), rmFirstVers)
			if err := r.d.Write(a, b, buf); err != nil {
				return err
			}
			r.blocks = append(r.blocks, b)
			r.ver = append(r.ver, rmFirstVers)
			pred = b
		}
		if err := r.d.EndARU(a); err != nil {
			return err
		}
	}
	if err := r.d.Flush(); err != nil {
		return err
	}
	// Warm the cache: the load measures reads of a resident working set.
	return r.verify(r.d, buf)
}

// verify checks that every block holds exactly its last committed
// version, intact.
func (r *rmRig) verify(d *aru.Disk, buf []byte) error {
	for i, b := range r.blocks {
		if err := d.Read(aru.Simple, b, buf); err != nil {
			return err
		}
		id, ver, ok := checkPayload(buf)
		if !ok || id != uint64(b) || ver != r.ver[i] {
			return wrongf("block %d reads id %d version %d (intact %v), want version %d", b, id, ver, ok, r.ver[i])
		}
	}
	return nil
}

type rmWorker struct {
	id       int
	rng      *rand.Rand
	lastSeen []uint64 // newest version this worker has read, per block
	win      *windows
	reads    int64
	writes   int64
	failed   int64
	err      error
}

func runReadMVCC(c *config, tr *tracer) (*result, error) {
	res := &result{}
	var rig *rmRig
	for i := 0; i < c.setups(tr); i++ {
		if rig != nil {
			rig.img.remove()
			time.Sleep(repGap)
		}
		err := res.setup.time(func() (err error) {
			rig, err = c.rmSetup(i)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	defer rig.img.remove()

	workers := make([]*rmWorker, c.workers)
	for i := range workers {
		workers[i] = &rmWorker{id: i, rng: rand.New(rand.NewSource(c.seed*1000 + int64(i))),
			lastSeen: make([]uint64, rmBlocks)}
	}
	st0, dev0 := rig.d.Stats(), rig.img.shim.c.snapshot()
	rig.img.shim.tr.Store(tr)
	res.tr, res.t0 = tr, tr.now()
	start := time.Now()
	sampler := sampleSteal(start, rmWinWidth)
	deadline := start.Add(c.duration())
	var wg sync.WaitGroup
	for _, w := range workers {
		w.win = newWindows(start, rmWinWidth)
		wg.Add(1)
		go func(w *rmWorker) {
			defer wg.Done()
			w.err = w.run(rig, tr, deadline, c.workers)
			if w.err != nil {
				w.failed++
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	steal := sampler.end(res.elapsed)
	res.t1 = tr.now()
	rig.img.shim.tr.Store(nil)
	res.st = statsDelta(rig.d.Stats(), st0)
	res.dev = rig.img.shim.c.snapshot().sub(dev0)

	var ws []*windows
	for _, w := range workers {
		ws = append(ws, w.win)
		res.ops += w.reads
		res.attempted += w.reads + w.writes
		res.failed += w.failed
		res.userBlks += w.writes
		if res.firstErr == nil {
			res.firstErr = w.err
		}
	}
	res.setWindows(ws, steal)
	res.payload = res.userBlks * int64(rig.d.BlockSize())
	res.heap = liveHeap()

	for _, w := range workers {
		if errors.Is(w.err, errWrong) {
			return res, fmt.Errorf("worker %d: %w", w.id, w.err)
		}
	}
	buf := make([]byte, rig.d.BlockSize())
	if err := rig.verify(rig.d, buf); err != nil {
		return res, fmt.Errorf("after load: %w", err)
	}
	// The tail: rmTailWrites more overwrites, the only part of the mix
	// that logs anything, then a flush.
	tail := func() error {
		rng := rand.New(rand.NewSource(c.seed*1000 + rmTailStream))
		for j := 0; j < rmTailWrites; j++ {
			if _, err := rig.overwrite(rng.Intn(rmBlocks), buf, nil, 0, 0); err != nil {
				return err
			}
		}
		err := rig.d.Flush()
		rig.d = nil
		return err
	}
	var err error
	res.recov, res.rep, err = c.crashAndRecover(rig.d, rig.img, tail, func(d *aru.Disk) error {
		return rig.verify(d, buf)
	})
	return res, err
}

// overwrite commits the next version of block i in a one-block ARU,
// ended with EndARU only, and times each engine call on tr for the
// worker conn and its op.
func (r *rmRig) overwrite(i int, buf []byte, tr *tracer, conn int, op int64) (aru.ARUID, error) {
	coreSpan := func(name spanName, a aru.ARUID, s int64) {
		tr.add(span{name: name, start: s, end: tr.now(), aru: uint64(a), op: op, conn: int16(conn)})
	}
	b, v := r.blocks[i], r.ver[i]+1
	fillPayload(buf, uint64(b), v)
	s := tr.now()
	a, err := r.d.BeginARU()
	coreSpan(spBegin, a, s)
	if err != nil {
		return a, err
	}
	s = tr.now()
	err = r.d.Write(a, b, buf)
	coreSpan(spWrite, a, s)
	if err != nil {
		_ = r.d.AbortARU(a)
		return a, err
	}
	s = tr.now()
	err = r.d.EndARU(a)
	coreSpan(spEndARU, a, s)
	if err != nil {
		return a, err
	}
	r.ver[i] = v
	return a, nil
}

// run is one worker's closed loop. A read must return an intact
// payload of the block asked for, at a version no older than any this
// worker saw before (reads never go back in time) and no older than
// the worker's own last committed overwrite of that block.
func (w *rmWorker) run(rig *rmRig, tr *tracer, deadline time.Time, workers int) error {
	d := rig.d
	rbuf := make([]byte, d.BlockSize())
	wbuf := make([]byte, d.BlockSize())
	owned := (rmBlocks - w.id + workers - 1) / workers
	coreSpan := func(name spanName, a aru.ARUID, op int64, s int64) {
		tr.add(span{name: name, start: s, end: tr.now(), aru: uint64(a), op: op, conn: int16(w.id)})
	}
	var counted int64 // reads already credited to a window
	for n := int64(0); ; n++ {
		if n%rmClockNth == 0 {
			now := time.Now()
			w.win.done(now, w.reads-counted)
			counted = w.reads
			if !now.Before(deadline) {
				return nil
			}
		}
		opID := int64(w.id)<<40 | n
		if n%rmWriteNth == rmWriteNth-1 {
			i := w.id + workers*w.rng.Intn(owned)
			s := tr.now()
			a, err := rig.overwrite(i, wbuf, tr, w.id, opID)
			if err != nil {
				return err
			}
			coreSpan(spOverwrite, a, opID, s)
			w.lastSeen[i] = rig.ver[i]
			w.writes++
			continue
		}
		i := w.rng.Intn(rmBlocks)
		b := rig.blocks[i]
		var t0 time.Time
		timed := w.reads%rmLatNth == 0
		if timed {
			t0 = time.Now()
		}
		var s int64
		traced := tr != nil && w.reads%rmTraceNth == 0
		if traced {
			s = tr.now()
		}
		err := d.Read(aru.Simple, b, rbuf)
		if traced {
			coreSpan(spRead, aru.Simple, opID, s)
		}
		if timed {
			now := time.Now()
			w.win.sample(now, now.Sub(t0))
		}
		if err != nil {
			return err
		}
		w.reads++
		id, ver, ok := checkPayload(rbuf)
		if !ok || id != uint64(b) {
			return wrongf("read of block %d returned a torn or foreign payload (id %d version %d)", b, id, ver)
		}
		if ver < w.lastSeen[i] {
			return wrongf("read of block %d returned version %d after version %d", b, ver, w.lastSeen[i])
		}
		w.lastSeen[i] = ver
	}
}
