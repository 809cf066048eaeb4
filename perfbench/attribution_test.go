package main

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"aru"
)

// The attribution self-test plants a slowdown in a test-only shim —
// never in the program — beneath the measuring shims, and checks that
// the traced run puts it in the layer it was planted in: a slower
// device sync shows in disk.sync_us and in the op latency, not in the
// ldnet or core self times; a slower engine shows in core.* and not in
// ldnet's self time.

// slowSync is a device whose Sync first sleeps for delay.
type slowSync struct {
	sharedDevice
	delay time.Duration
	slept atomic.Int64 // ns actually slept, summed
	n     atomic.Int64
}

func (s *slowSync) Sync() error {
	t := time.Now()
	time.Sleep(s.delay)
	s.slept.Add(int64(time.Since(t)))
	s.n.Add(1)
	return s.sharedDevice.Sync()
}

func (s *slowSync) mean() float64 { return float64(s.slept.Load()) / float64(s.n.Load()) / 1e3 }

// slowEngine is the engine with extra CPU work — a spin, as slower
// engine code would add — before every call net-durable makes, except
// Flush (so its time cannot hide inside a device sync).
type slowEngine struct {
	*aru.Disk
	delay time.Duration
	slept atomic.Int64
	n     atomic.Int64
}

func (s *slowEngine) wait() {
	t := time.Now()
	for time.Since(t) < s.delay {
	}
	s.slept.Add(int64(time.Since(t)))
	s.n.Add(1)
}

func (s *slowEngine) mean() float64 { return float64(s.slept.Load()) / float64(s.n.Load()) / 1e3 }

func (s *slowEngine) BeginARU() (aru.ARUID, error) { s.wait(); return s.Disk.BeginARU() }
func (s *slowEngine) EndARU(a aru.ARUID) error     { s.wait(); return s.Disk.EndARU(a) }
func (s *slowEngine) AbortARU(a aru.ARUID) error   { s.wait(); return s.Disk.AbortARU(a) }
func (s *slowEngine) Read(a aru.ARUID, b aru.BlockID, p []byte) error {
	s.wait()
	return s.Disk.Read(a, b, p)
}
func (s *slowEngine) Write(a aru.ARUID, b aru.BlockID, p []byte) error {
	s.wait()
	return s.Disk.Write(a, b, p)
}
func (s *slowEngine) NewBlock(a aru.ARUID, l aru.ListID, pred aru.BlockID) (aru.BlockID, error) {
	s.wait()
	return s.Disk.NewBlock(a, l, pred)
}
func (s *slowEngine) DeleteBlock(a aru.ARUID, b aru.BlockID) error {
	s.wait()
	return s.Disk.DeleteBlock(a, b)
}

// tracedNetDurable runs the net-durable load once, traced, and returns
// its end-to-end and per-layer metrics by name. The recovery step is
// not part of attribution and is left out.
func tracedNetDurable(t *testing.T, c config) map[string]float64 {
	t.Helper()
	c.workload, c.seed, c.seconds = "net-durable", 7, 2
	c.dir, c.workers = t.TempDir(), workersFor("net-durable")
	tr := newTracer()
	r, rig, err := ndLoad(&c, tr)
	if rig != nil {
		defer rig.img.remove()
		defer rig.close()
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d ops failed: %v", r.failed, r.firstErr)
	}
	tr.link()
	m := map[string]float64{}
	for _, x := range append(endToEnd(r), perLayer(r, r)...) {
		m[x.name] = x.value
	}
	return m
}

func TestAttributionSlowSync(t *testing.T) {
	if testing.Short() {
		t.Skip("runs net-durable three times on a real file")
	}
	base := tracedNetDurable(t, config{})
	var dev *slowSync
	slow := tracedNetDurable(t, config{wrapDev: func(d sharedDevice) sharedDevice {
		dev = &slowSync{sharedDevice: d, delay: 5 * time.Millisecond}
		return dev
	}})
	planted := dev.mean() // µs actually added to each sync
	report(t, base, slow, planted)

	within(t, "disk.sync_us", slow["disk.sync_us"]-base["disk.sync_us"], 0.8*planted, 1.3*planted)
	// A durable commit waits for its own batch's sync, and for one
	// more when the cleaner or a checkpoint runs behind it (about 1.2
	// syncs per ARU on one connection).
	within(t, "op_p50_us", slow["op_p50_us"]-base["op_p50_us"], 0.8*planted, 2*planted)
	stays(t, "ldnet.self_us", base, slow, 0.1*planted)
	// The commit's self time excludes the device time it overlaps, but
	// it does include the group-commit leader's batching pause, which
	// the engine sizes from the observed sync cost and caps at 1 ms
	// (batchWindow in aru/internal/core). Had the device time leaked
	// into it, it would move by the whole planted delay.
	stays(t, "core.commit_self_us", base, slow, 1000+0.1*planted)
}

func TestAttributionSlowEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs net-durable twice on a real file")
	}
	base := tracedNetDurable(t, config{})
	var eng *slowEngine
	slow := tracedNetDurable(t, config{wrapBackend: func(b tracedNetBackend) tracedNetBackend {
		eng = &slowEngine{Disk: b.(*aru.Disk), delay: time.Millisecond}
		return eng
	}})
	planted := eng.mean() // µs added to each engine call
	report(t, base, slow, planted)

	// A committed ARU makes 10 engine calls before its commit (begin,
	// 2 NewBlock, 4 Write, 1 Read, 2 DeleteBlock) and one EndARU, each
	// over its own RPC.
	within(t, "core.op_us", slow["core.op_us"]-base["core.op_us"], 0.8*10*planted, 1.5*10*planted)
	within(t, "core.commit_us", slow["core.commit_us"]-base["core.commit_us"], 0.8*planted, math.Inf(1))
	within(t, "ldnet.rpc_us", slow["ldnet.rpc_us"]-base["ldnet.rpc_us"], 0.8*11*planted, math.Inf(1))
	// ldnet's self time holds the transport's wake-up latency: when the
	// server answers slowly the client's thread parks instead of
	// spinning, which costs tens of µs per RPC on a 2-CPU host. That
	// stays a small share of the planted time.
	stays(t, "ldnet.self_us", base, slow, 0.15*11*planted)
}

func report(t *testing.T, base, slow map[string]float64, planted float64) {
	t.Logf("planted %.1f us per call", planted)
	for _, k := range []string{"op_p50_us", "ldnet.rpc_us", "ldnet.self_us", "core.op_us",
		"core.commit_us", "core.commit_self_us", "disk.sync_us", "disk.syncs_per_op"} {
		t.Logf("%-22s base %10.1f  slowed %10.1f  delta %10.1f", k, base[k], slow[k], slow[k]-base[k])
	}
}

func within(t *testing.T, name string, delta, lo, hi float64) {
	t.Helper()
	if delta < lo || delta > hi {
		t.Errorf("%s moved by %.1f, want %.1f..%.1f", name, delta, lo, hi)
	}
}

func stays(t *testing.T, name string, base, slow map[string]float64, tol float64) {
	t.Helper()
	if d := slow[name] - base[name]; math.Abs(d) > tol {
		t.Errorf("%s moved by %.1f (%.1f → %.1f), want it to stay within %.1f", name, d, base[name], slow[name], tol)
	}
}
