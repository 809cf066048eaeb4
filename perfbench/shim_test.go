package main

import (
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"

	"aru"
	"aru/internal/ldnet"
)

// The shims must keep the program on its normal code path: the ldnet
// server type-asserts TracedBackend on its backend, and the engine
// type-asserts ReadAtShared on its device. Dropping a TracedBackend
// method from the backend shim breaks this assertion against the real
// interface at compile time; the tests below check both at run time.
var (
	_ ldnet.Backend       = (*backendShim)(nil)
	_ ldnet.TracedBackend = (*backendShim)(nil)
)

// TestDevShimForwardsReadAtShared checks at run time that engine reads
// through the shim arrive on the lock-free ReadAtShared path.
func TestDevShimForwardsReadAtShared(t *testing.T) {
	layout := aru.DefaultLayout(16)
	f, err := aru.CreateFileDevice(filepath.Join(t.TempDir(), "dev.img"), layout.DiskBytes())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	inner := &sharedProbe{FileDevice: f}
	shim := newDevShim(inner)
	// No cache, so every read of a flushed block goes to the device.
	d, err := aru.Format(shim, aru.Params{Layout: layout, CacheBlocks: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	lst, err := d.NewList(aru.Simple)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBlock(aru.Simple, lst, aru.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, layout.BlockSize)
	fillPayload(buf, uint64(b), 1)
	if err := d.Write(aru.Simple, b, buf); err != nil {
		t.Fatal(err)
	}
	// Fill the open segment so the block is read from the device, not
	// from the in-memory segment image.
	for i := 0; i < 2*layout.BlocksPerSeg(); i++ {
		x, err := d.NewBlock(aru.Simple, lst, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(aru.Simple, x, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	before := inner.shared.Load()
	if err := d.Read(aru.Simple, b, buf); err != nil {
		t.Fatal(err)
	}
	if id, _, ok := checkPayload(buf); !ok || id != uint64(b) {
		t.Fatalf("read back block %d as id %d (intact %v)", b, id, ok)
	}
	if inner.shared.Load() == before {
		t.Fatal("engine read did not reach the device through ReadAtShared")
	}
}

// sharedProbe is the file device with a counter on its lock-free read.
type sharedProbe struct {
	*aru.FileDevice
	shared atomic.Int64
}

func (p *sharedProbe) ReadAtShared(b []byte, off int64) error {
	p.shared.Add(1)
	return p.FileDevice.ReadAtShared(b, off)
}

// tracedProbe is the engine with a counter on its traced commit entry
// point, so the test can see whether the server reached it.
type tracedProbe struct {
	*aru.Disk
	traced atomic.Int64
}

func (p *tracedProbe) EndARUTraced(a aru.ARUID, sc aru.SpanContext) error {
	p.traced.Add(1)
	return p.Disk.EndARUTraced(a, sc)
}

// TestBackendShimForwardsTracedBackend checks at run time that a
// traced request through the shim reaches the engine's traced commit,
// as it does without the shim.
func TestBackendShimForwardsTracedBackend(t *testing.T) {
	layout := aru.DefaultLayout(16)
	d, err := aru.Format(aru.NewMemDevice(layout.DiskBytes()), aru.Params{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	probe := &tracedProbe{Disk: d}
	tracer := aru.NewTracer(aru.TracerConfig{})
	srv := aru.NewNetServer(newBackendShim(probe), aru.NetServerOptions{Tracer: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	cl, err := aru.Dial(ln.Addr().String(), aru.DialConfig{Tracer: aru.NewTracer(aru.TracerConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a, err := cl.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CommitDurable(a); err != nil {
		t.Fatal(err)
	}
	if probe.traced.Load() == 0 {
		t.Fatal("traced commit did not reach the engine's EndARUTraced through the shim")
	}
}
