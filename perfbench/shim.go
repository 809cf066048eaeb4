package main

import (
	"sync/atomic"

	"aru"
)

// devCounters are the device shim's call and byte counters. They are
// kept on every run; spans are recorded only when a tracer is set.
type devCounters struct {
	reads              atomic.Int64
	writes, writeBytes atomic.Int64
	syncs              atomic.Int64
}

type devSnapshot struct {
	reads, writes, writeBytes, syncs int64
}

func (c *devCounters) snapshot() devSnapshot {
	return devSnapshot{
		reads:  c.reads.Load(),
		writes: c.writes.Load(), writeBytes: c.writeBytes.Load(),
		syncs: c.syncs.Load(),
	}
}

func (s devSnapshot) sub(o devSnapshot) devSnapshot {
	return devSnapshot{
		s.reads - o.reads, s.writes - o.writes,
		s.writeBytes - o.writeBytes, s.syncs - o.syncs,
	}
}

// sharedDevice is a device with the lock-free read surface the engine
// type-asserts (aru/internal/core). A shim that hid ReadAtShared would
// move every read back onto the device mutex, so the device shim only
// wraps, and only is, a sharedDevice.
type sharedDevice interface {
	aru.Device
	ReadAtShared(p []byte, off int64) error
}

// devShim measures the disk layer from outside: it sits between the
// engine and the device and forwards every call, including
// ReadAtShared, so the engine stays on its normal code path.
type devShim struct {
	inner sharedDevice
	tr    atomic.Pointer[tracer]
	c     devCounters
}

func newDevShim(inner sharedDevice) *devShim { return &devShim{inner: inner} }

var _ sharedDevice = (*devShim)(nil)

func (s *devShim) span(name spanName, start int64) {
	if t := s.tr.Load(); t != nil {
		end := t.now()
		t.add(span{name: name, start: start, end: end, op: -1, conn: -1})
	}
}

func (s *devShim) ReadAt(p []byte, off int64) error {
	start := s.tr.Load().now()
	err := s.inner.ReadAt(p, off)
	s.span(spDevRead, start)
	s.c.reads.Add(1)
	return err
}

func (s *devShim) ReadAtShared(p []byte, off int64) error {
	start := s.tr.Load().now()
	err := s.inner.ReadAtShared(p, off)
	s.span(spDevRead, start)
	s.c.reads.Add(1)
	return err
}

func (s *devShim) WriteAt(p []byte, off int64) error {
	start := s.tr.Load().now()
	err := s.inner.WriteAt(p, off)
	s.span(spDevWrite, start)
	s.c.writes.Add(1)
	s.c.writeBytes.Add(int64(len(p)))
	return err
}

func (s *devShim) Sync() error {
	start := s.tr.Load().now()
	err := s.inner.Sync()
	s.span(spDevSync, start)
	s.c.syncs.Add(1)
	return err
}

func (s *devShim) Size() int64 { return s.inner.Size() }

// tracedNetBackend is a backend with the optional tracing surface the
// ldnet server type-asserts (aru/internal/ldnet.TracedBackend). The
// backend shim only wraps, and only is, a tracedNetBackend.
type tracedNetBackend interface {
	aru.NetBackend
	EndARUTraced(a aru.ARUID, sc aru.SpanContext) error
	FlushTraced(sc aru.SpanContext) error
	LastBatch() uint64
}

// backendShim measures the core layer behind ldnet: it is the backend
// handed to aru.NewNetServer and forwards every call to the engine,
// including the TracedBackend surface.
type backendShim struct {
	inner tracedNetBackend
	tr    atomic.Pointer[tracer]
}

func newBackendShim(inner tracedNetBackend) *backendShim { return &backendShim{inner: inner} }

var _ tracedNetBackend = (*backendShim)(nil)

func (s *backendShim) span(name spanName, a aru.ARUID, start int64) {
	if t := s.tr.Load(); t != nil {
		end := t.now()
		t.add(span{name: name, start: start, end: end, aru: uint64(a), op: -1, conn: -1})
	}
}

func (s *backendShim) Read(a aru.ARUID, b aru.BlockID, dst []byte) error {
	start := s.tr.Load().now()
	err := s.inner.Read(a, b, dst)
	s.span(spRead, a, start)
	return err
}

func (s *backendShim) Write(a aru.ARUID, b aru.BlockID, data []byte) error {
	start := s.tr.Load().now()
	err := s.inner.Write(a, b, data)
	s.span(spWrite, a, start)
	return err
}

func (s *backendShim) NewBlock(a aru.ARUID, lst aru.ListID, pred aru.BlockID) (aru.BlockID, error) {
	start := s.tr.Load().now()
	b, err := s.inner.NewBlock(a, lst, pred)
	s.span(spNewBlock, a, start)
	return b, err
}

func (s *backendShim) NewList(a aru.ARUID) (aru.ListID, error) {
	start := s.tr.Load().now()
	l, err := s.inner.NewList(a)
	s.span(spCoreOther, a, start)
	return l, err
}

func (s *backendShim) DeleteBlock(a aru.ARUID, b aru.BlockID) error {
	start := s.tr.Load().now()
	err := s.inner.DeleteBlock(a, b)
	s.span(spDelete, a, start)
	return err
}

func (s *backendShim) DeleteList(a aru.ARUID, lst aru.ListID) error {
	start := s.tr.Load().now()
	err := s.inner.DeleteList(a, lst)
	s.span(spCoreOther, a, start)
	return err
}

func (s *backendShim) MoveBlock(a aru.ARUID, b aru.BlockID, lst aru.ListID, pred aru.BlockID) error {
	start := s.tr.Load().now()
	err := s.inner.MoveBlock(a, b, lst, pred)
	s.span(spCoreOther, a, start)
	return err
}

func (s *backendShim) ListBlocks(a aru.ARUID, lst aru.ListID) ([]aru.BlockID, error) {
	start := s.tr.Load().now()
	bs, err := s.inner.ListBlocks(a, lst)
	s.span(spCoreOther, a, start)
	return bs, err
}

func (s *backendShim) Lists(a aru.ARUID) ([]aru.ListID, error) {
	start := s.tr.Load().now()
	ls, err := s.inner.Lists(a)
	s.span(spCoreOther, a, start)
	return ls, err
}

func (s *backendShim) StatBlock(a aru.ARUID, b aru.BlockID) (aru.BlockInfo, error) {
	start := s.tr.Load().now()
	bi, err := s.inner.StatBlock(a, b)
	s.span(spCoreOther, a, start)
	return bi, err
}

func (s *backendShim) BeginARU() (aru.ARUID, error) {
	start := s.tr.Load().now()
	a, err := s.inner.BeginARU()
	s.span(spBegin, a, start)
	return a, err
}

func (s *backendShim) EndARU(a aru.ARUID) error {
	start := s.tr.Load().now()
	err := s.inner.EndARU(a)
	s.span(spEndARU, a, start)
	return err
}

func (s *backendShim) AbortARU(a aru.ARUID) error {
	start := s.tr.Load().now()
	err := s.inner.AbortARU(a)
	s.span(spAbort, a, start)
	return err
}

func (s *backendShim) Flush() error {
	start := s.tr.Load().now()
	err := s.inner.Flush()
	s.span(spFlush, 0, start)
	return err
}

func (s *backendShim) Stats() aru.Stats { return s.inner.Stats() }
func (s *backendShim) BlockSize() int   { return s.inner.BlockSize() }

func (s *backendShim) EndARUTraced(a aru.ARUID, sc aru.SpanContext) error {
	start := s.tr.Load().now()
	err := s.inner.EndARUTraced(a, sc)
	s.span(spEndARU, a, start)
	return err
}

func (s *backendShim) FlushTraced(sc aru.SpanContext) error {
	start := s.tr.Load().now()
	err := s.inner.FlushTraced(sc)
	s.span(spFlush, 0, start)
	return err
}

func (s *backendShim) LastBatch() uint64 { return s.inner.LastBatch() }
