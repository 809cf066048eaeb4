package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"aru"
)

// net-durable: closed loop, one client connection per worker, over
// loopback to an in-process ldnet server. One op is one ARU.
//
// It runs ndConns connections, not one per CPU: the engine runs its
// cleaner and automatic checkpoints only at a segment write with no
// ARU open, so with two connections the other client's ARU is open at
// most of those instants, the log runs out of reusable segments
// (ErrNoSpace) on some runs and the rate swings several-fold within
// one (README.md, findings).
const (
	ndConns    = 1
	ndSegs     = 64  // 32 MB device: the log wraps every ~50 commits
	ndWindow   = 256 // live blocks per connection (FIFO list)
	ndAbortNth = 8   // every 8th ARU aborts instead of committing
	ndFillARU  = 32  // blocks per ARU while populating
	ndWinWidth = 500 * time.Millisecond
	ndTailOps  = 32 // the log tail before the crash: 28 durable commits
)

func ndLayout() aru.Layout {
	l := aru.DefaultLayout(ndSegs)
	// Aborted units leak the ids their NewBlocks allocated until the
	// next consistency check; give the id space room for a long run.
	l.MaxBlocks = 1 << 16
	return l
}

type ndClient struct {
	id      int
	cl      *aru.NetClient
	rng     *rand.Rand
	lst     aru.ListID
	blocks  []aru.BlockID          // committed list order, oldest first
	ver     map[aru.BlockID]uint64 // committed version of each live block
	next    uint64                 // last version handed out
	bufs    [4][]byte
	rbuf    []byte
	win     *windows
	n       int64 // ops issued, the index of the next one
	rpcs    int64
	ops     int64 // committed ARUs
	tried   int64
	failed  int64
	err     error // the first op error
	stopped bool  // an op failed in a way that leaves the model unknown
}

// abortedErr is an op failure after which the unit was aborted.
type abortedErr struct{ err error }

func (e *abortedErr) Error() string { return e.err.Error() + " (unit aborted)" }
func (e *abortedErr) Unwrap() error { return e.err }

type ndRig struct {
	img     *image
	d       *aru.Disk
	be      *backendShim
	srv     *aru.NetServer
	served  chan error
	clients []*ndClient
}

// close shuts the clients and the server down; the engine stays open.
func (r *ndRig) close() {
	if r.served == nil {
		return
	}
	for _, k := range r.clients {
		_ = k.cl.Close()
	}
	_ = r.srv.Close()
	<-r.served
	r.served = nil
}

func (c *config) ndSetup(n int) (*ndRig, error) {
	layout := ndLayout()
	img, err := c.newImage(fmt.Sprintf("net-durable-%d.img", n), layout.DiskBytes())
	if err != nil {
		return nil, err
	}
	d, err := aru.Format(img.shim, aru.Params{Layout: layout})
	if err != nil {
		img.remove()
		return nil, err
	}
	var backend tracedNetBackend = d
	if c.wrapBackend != nil {
		backend = c.wrapBackend(backend)
	}
	r := &ndRig{img: img, d: d, be: newBackendShim(backend), served: make(chan error, 1)}
	r.srv = aru.NewNetServer(r.be, aru.NetServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		img.remove()
		return nil, err
	}
	go func() { r.served <- r.srv.Serve(ln) }()
	for i := 0; i < c.workers; i++ {
		cl, err := aru.Dial(ln.Addr().String(), aru.DialConfig{})
		if err != nil {
			r.close()
			img.remove()
			return nil, err
		}
		k := &ndClient{id: i, cl: cl, rng: rand.New(rand.NewSource(c.seed*1000 + int64(i))),
			ver: map[aru.BlockID]uint64{}, rbuf: make([]byte, layout.BlockSize)}
		for j := range k.bufs {
			k.bufs[j] = make([]byte, layout.BlockSize)
		}
		r.clients = append(r.clients, k)
		if err := k.populate(); err != nil {
			r.close()
			img.remove()
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	return r, nil
}

func (k *ndClient) populate() error {
	var err error
	if k.lst, err = k.cl.NewList(aru.Simple); err != nil {
		return err
	}
	for len(k.blocks) < ndWindow {
		a, err := k.cl.BeginARU()
		if err != nil {
			return err
		}
		pred := aru.NilBlock
		if len(k.blocks) > 0 {
			pred = k.blocks[len(k.blocks)-1]
		}
		var added []aru.BlockID
		for j := 0; j < ndFillARU; j++ {
			b, err := k.cl.NewBlock(a, k.lst, pred)
			if err != nil {
				return err
			}
			k.next++
			fillPayload(k.bufs[0], uint64(b), k.next)
			if err := k.cl.Write(a, b, k.bufs[0]); err != nil {
				return err
			}
			k.ver[b] = k.next
			added = append(added, b)
			pred = b
		}
		if err := k.cl.CommitDurable(a); err != nil {
			return err
		}
		k.blocks = append(k.blocks, added...)
	}
	return nil
}

func runNetDurable(c *config, tr *tracer) (*result, error) {
	res, rig, err := ndLoad(c, tr)
	if rig != nil {
		defer rig.img.remove()
		defer rig.close()
	}
	if err != nil {
		return res, err
	}
	// The tail: ndTailOps more ARUs of the same clients' mix, then the
	// clients and the server go away.
	tail := func() error {
		defer func() {
			rig.close()
			rig.d, rig.be, rig.srv = nil, nil, nil
		}()
		for _, k := range rig.clients {
			k.win = nil // the tail is not measured
			for j := 0; j < ndTailOps && !k.stopped; j++ {
				if err := k.op(nil); err != nil {
					return fmt.Errorf("client %d: %w", k.id, err)
				}
			}
		}
		return nil
	}
	res.recov, res.rep, err = c.crashAndRecover(rig.d, rig.img, tail, func(d *aru.Disk) error {
		for _, k := range rig.clients {
			if !k.stopped {
				if err := k.verify(d); err != nil {
					return fmt.Errorf("client %d after recovery: %w", k.id, err)
				}
			}
		}
		return nil
	})
	return res, err
}

// ndLoad sets up, runs and checks the load. It leaves the server, the
// clients and the engine running for the log tail; rig.close shuts the
// server and clients down.
func ndLoad(c *config, tr *tracer) (*result, *ndRig, error) {
	res := &result{}
	var rig *ndRig
	for i := 0; i < c.setups(tr); i++ {
		if rig != nil {
			rig.close()
			rig.img.remove()
			time.Sleep(repGap)
		}
		err := res.setup.time(func() (err error) {
			rig, err = c.ndSetup(i)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
	}

	st0, dev0 := rig.d.Stats(), rig.img.shim.c.snapshot()
	rig.img.shim.tr.Store(tr)
	rig.be.tr.Store(tr)
	res.tr, res.t0 = tr, tr.now()
	start := time.Now()
	sampler := sampleSteal(start, ndWinWidth)
	deadline := start.Add(c.duration())
	var wg sync.WaitGroup
	for _, k := range rig.clients {
		k.win = newWindows(start, ndWinWidth)
		wg.Add(1)
		go func(k *ndClient) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				err := k.op(tr)
				if err == nil {
					continue
				}
				k.failed++
				if k.err == nil || errors.Is(err, errWrong) {
					k.err = err
				}
				var ab *abortedErr
				if !errors.As(err, &ab) || errors.Is(err, errWrong) {
					k.stopped = true
					return // the client's model is no longer known
				}
			}
		}(k)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	steal := sampler.end(res.elapsed)
	res.t1 = tr.now()
	rig.img.shim.tr.Store(nil)
	rig.be.tr.Store(nil)
	res.st = statsDelta(rig.d.Stats(), st0)
	res.dev = rig.img.shim.c.snapshot().sub(dev0)

	var ws []*windows
	for _, k := range rig.clients {
		ws = append(ws, k.win)
		res.ops += k.ops
		res.attempted += k.tried
		res.failed += k.failed
		res.rpcs += k.rpcs
		if res.firstErr == nil {
			res.firstErr = k.err
		}
	}
	res.setWindows(ws, steal)
	res.userBlks = 4 * res.ops
	res.payload = res.userBlks * int64(rig.d.BlockSize())
	res.heap = liveHeap()

	for _, k := range rig.clients {
		if errors.Is(k.err, errWrong) {
			return res, rig, fmt.Errorf("client %d: %w", k.id, k.err)
		}
		if !k.stopped {
			if err := k.verify(k.cl); err != nil {
				return res, rig, fmt.Errorf("client %d after load: %w", k.id, err)
			}
		}
	}
	return res, rig, nil
}

// op runs one ARU: two NewBlocks with their writes, two overwrites of
// the client's own committed blocks, a read-back of one overwrite from
// the shadow state, and — once the window is full — deletion of the
// two oldest blocks; then CommitDurable, or AbortARU for every
// ndAbortNth unit. The model changes only when the commit succeeds.
func (k *ndClient) op(tr *tracer) error {
	n := k.n
	k.n++
	opID := int64(k.id)<<40 | n
	rpc := func(a aru.ARUID, start int64) {
		k.rpcs++
		tr.add(span{name: spRPC, start: start, end: tr.now(), aru: uint64(a), op: opID, conn: int16(k.id)})
	}
	k.tried++
	t0 := time.Now()
	s := tr.now()
	a, err := k.cl.BeginARU()
	rpc(a, s)
	if err != nil {
		return err
	}
	// A failure before the commit aborts the unit, which leaves the
	// committed state, and so the model, as it was.
	fail := func(err error) error {
		if aerr := k.cl.AbortARU(a); aerr != nil {
			return err
		}
		return &abortedErr{err}
	}

	del := len(k.blocks)+2 > ndWindow
	old := k.blocks
	if del {
		old = k.blocks[2:]
	}
	var (
		ids  [4]aru.BlockID
		vers [4]uint64
	)
	pred := k.blocks[len(k.blocks)-1]
	for j := 0; j < 2; j++ {
		s = tr.now()
		b, err := k.cl.NewBlock(a, k.lst, pred)
		rpc(a, s)
		if err != nil {
			return fail(err)
		}
		ids[j], pred = b, b
	}
	x := k.rng.Intn(len(old))
	y := (x + 1 + k.rng.Intn(len(old)-1)) % len(old)
	ids[2], ids[3] = old[x], old[y]
	for j, b := range ids {
		k.next++
		vers[j] = k.next
		fillPayload(k.bufs[j], uint64(b), vers[j])
		s = tr.now()
		err := k.cl.Write(a, b, k.bufs[j])
		rpc(a, s)
		if err != nil {
			return fail(err)
		}
	}
	s = tr.now()
	err = k.cl.Read(a, ids[2], k.rbuf)
	rpc(a, s)
	if err != nil {
		return fail(err)
	}
	if !bytes.Equal(k.rbuf, k.bufs[2]) {
		return fail(wrongf("shadow read-back of block %d in ARU %d differs from its write", ids[2], a))
	}
	if del {
		for _, b := range k.blocks[:2] {
			s = tr.now()
			err := k.cl.DeleteBlock(a, b)
			rpc(a, s)
			if err != nil {
				return fail(err)
			}
		}
	}

	s = tr.now()
	if n%ndAbortNth == ndAbortNth-1 {
		err = k.cl.AbortARU(a)
		rpc(a, s)
		return err
	}
	err = k.cl.CommitDurable(a)
	rpc(a, s)
	if err != nil {
		return err
	}
	if k.win != nil {
		now := time.Now()
		k.win.done(now, 1)
		k.win.sample(now, now.Sub(t0))
	}
	k.ops++
	if del {
		delete(k.ver, k.blocks[0])
		delete(k.ver, k.blocks[1])
		k.blocks = append(k.blocks[:0], k.blocks[2:]...)
	}
	k.blocks = append(k.blocks, ids[0], ids[1])
	for j, b := range ids {
		k.ver[b] = vers[j]
	}
	return nil
}

// verify checks the committed state seen through rd against the
// client's model: the list holds exactly the committed blocks in
// order, and every block holds its last committed version. An aborted
// unit's NewBlock, delete or overwrite would show as a mismatch.
func (k *ndClient) verify(rd aru.Interface) error {
	got, err := rd.ListBlocks(aru.Simple, k.lst)
	if err != nil {
		return err
	}
	if len(got) != len(k.blocks) {
		return wrongf("list %d has %d blocks, want %d", k.lst, len(got), len(k.blocks))
	}
	for i, b := range got {
		if b != k.blocks[i] {
			return wrongf("list %d position %d holds block %d, want %d", k.lst, i, b, k.blocks[i])
		}
		if err := rd.Read(aru.Simple, b, k.rbuf); err != nil {
			return err
		}
		id, ver, ok := checkPayload(k.rbuf)
		if !ok || id != uint64(b) || ver != k.ver[b] {
			return wrongf("block %d reads id %d version %d (intact %v), want version %d", b, id, ver, ok, k.ver[b])
		}
	}
	return nil
}
