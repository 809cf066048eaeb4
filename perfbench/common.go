package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aru"
)

// A payload is self-describing: word 0 is the block (or file) id, word
// 1 its version, and every later word is a function of both and of its
// own index. A read that returns a mix of two versions, the wrong
// block, or stale bytes in any word fails checkPayload.
func fillPayload(p []byte, id, ver uint64) {
	binary.LittleEndian.PutUint64(p[0:], id)
	binary.LittleEndian.PutUint64(p[8:], ver)
	k := payloadKey(id, ver)
	for i := 16; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], k^uint64(i)*0x9e3779b97f4a7c15)
	}
}

func checkPayload(p []byte) (id, ver uint64, ok bool) {
	id = binary.LittleEndian.Uint64(p[0:])
	ver = binary.LittleEndian.Uint64(p[8:])
	k := payloadKey(id, ver)
	for i := 16; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != k^uint64(i)*0x9e3779b97f4a7c15 {
			return id, ver, false
		}
	}
	return id, ver, true
}

func payloadKey(id, ver uint64) uint64 {
	z := id*0xbf58476d1ce4e5b9 ^ ver + 0x94d049bb133111eb
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	return z ^ z>>29
}

// errWrong marks a wrong answer: the run's output is incorrect, which
// is a different outcome from an operation that returned an error.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// result is what one run of a workload measured.
type result struct {
	ops       int64 // operations counted by ops_per_s
	attempted int64
	failed    int64
	elapsed   time.Duration // wall time of the load
	rate      float64       // ops per second (median over windows)
	rateLo    float64       // slowest calm window's rate
	rateHi    float64       // fastest calm window's rate
	p50, p99  int64         // op latency quantiles over the calm windows, ns
	nlat      int           // latency samples in the calm windows
	nwin      int           // calm windows of the load
	nall      int           // full windows of the load
	payload   int64         // user payload bytes written by the load
	dev       devSnapshot   // device traffic during the load
	st        aru.Stats     // engine counter deltas over the load
	heap      uint64        // live heap after a forced GC at the end of the load
	setup     reps          // the run's set-ups
	recov     reps          // the mounts of the crashed image
	rep       aru.RecoveryReport
	rpcs      int64 // ldnet client RPCs issued by the load
	userBlks  int64 // user block writes (relocation base)
	tr        *tracer
	t0, t1    int64 // load interval on the tracer's clock
	firstErr  error // first failed op, if any
}

// windows splits one worker's load into fixed windows of wall time and
// keeps each window's completed-op count and latency samples.
type windows struct {
	start time.Time
	width time.Duration
	ops   []int64
	lat   [][]int64
}

func newWindows(start time.Time, width time.Duration) *windows {
	return &windows{start: start, width: width}
}

func (w *windows) slot(now time.Time) int {
	k := int(now.Sub(w.start) / w.width)
	for len(w.ops) <= k {
		w.ops = append(w.ops, 0)
		w.lat = append(w.lat, nil)
	}
	return k
}

// done counts n ops completed at now.
func (w *windows) done(now time.Time, n int64) { w.ops[w.slot(now)] += n }

// sample records the latency of an op completed at now.
func (w *windows) sample(now time.Time, lat time.Duration) {
	k := w.slot(now)
	w.lat[k] = append(w.lat[k], int64(lat))
}

// calmSteal is the share of the machine's CPU time the hypervisor may
// steal in a window before the window counts as disturbed.
const calmSteal = 0.01

// stealSampler reads the machine's stolen CPU time at every window
// boundary of a load. Stolen time is time a virtual CPU was ready to
// run while the hypervisor ran another tenant: it slows the program
// without being the program's doing.
type stealSampler struct {
	width      time.Duration
	shares     []float64 // stolen share of the machine's CPU time, per window
	st0, tot0  int64
	stop, done chan struct{}
}

func sampleSteal(start time.Time, width time.Duration) *stealSampler {
	s := &stealSampler{width: width, stop: make(chan struct{}), done: make(chan struct{})}
	s.st0, s.tot0 = cpuTimes()
	go func() {
		defer close(s.done)
		for k := 1; ; k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(k) * width)))
			select {
			case <-s.stop:
				t.Stop()
				return
			case <-t.C:
			}
			s.read()
		}
	}()
	return s
}

func (s *stealSampler) read() {
	st, tot := cpuTimes()
	s.shares = append(s.shares, ratio(st-s.st0, tot-s.tot0))
	s.st0, s.tot0 = st, tot
}

// end stops the sampler, waits for it, and returns the steal share of
// each window of a load that lasted elapsed.
func (s *stealSampler) end(elapsed time.Duration) []float64 {
	close(s.stop)
	<-s.done
	if len(s.shares) < int(elapsed/s.width) {
		s.read()
	}
	return s.shares
}

// calmCut is the largest steal share a window or repetition may have
// and still count as calm: calmSteal, or the share of the calmest
// quarter of them, whichever is larger.
func calmCut(steal []float64) float64 {
	if len(steal) == 0 {
		return calmSteal
	}
	s := append([]float64(nil), steal...)
	sort.Float64s(s)
	return math.Max(calmSteal, s[(len(s)-1)/4])
}

// reps is the wall time of a run's repeated set-ups or mounts, with the
// share of the machine's CPU time the hypervisor stole during each.
type reps struct {
	dur   []time.Duration
	steal []float64
}

// time runs f as one more repetition and records its wall time.
func (r *reps) time(f func() error) error {
	st0, tot0 := cpuTimes()
	t0 := time.Now()
	err := f()
	r.dur = append(r.dur, time.Since(t0))
	st, tot := cpuTimes()
	r.steal = append(r.steal, ratio(st-st0, tot-tot0))
	return err
}

// median is the median wall time of the calm repetitions, chosen as
// setWindows chooses calm windows.
func (r *reps) median() time.Duration {
	cut := calmCut(r.steal)
	var v []int64
	for i, d := range r.dur {
		if r.steal[i] <= cut {
			v = append(v, int64(d))
		}
	}
	return time.Duration(quantile(v, 0.5))
}

// setWindows derives the op rate and latency quantiles of the load
// from its workers' windows and the steal share of each window. Only
// the calm windows count: those in which the hypervisor stole at most
// calmSteal of the machine's CPU time, or no more than in the run's
// calmest quarter of windows. On a quiet host that is nearly every
// window; when other tenants load the host, it is the least disturbed
// quarter. The choice looks only at the host, never at the program's
// own speed, so a slow window of the program's own making (a cleaner
// pass, a checkpoint) counts like any other. The rate and the
// quantiles are taken over the pooled ops and latency samples of the
// calm windows. A load shorter than one window counts as one window.
func (r *result) setWindows(ws []*windows, steal []float64) {
	width := ws[0].width
	full := int(r.elapsed / width)
	if full < 1 {
		full, width = 1, r.elapsed
	}
	for len(steal) < full {
		steal = append(steal, 0)
	}
	steal = steal[:full]
	cut := calmCut(steal)
	var ops int64
	var lat []int64
	var rate []float64
	for k := 0; k < full; k++ {
		var wops int64
		var wlat []int64
		for _, w := range ws {
			if k < len(w.ops) {
				wops += w.ops[k]
				wlat = append(wlat, w.lat[k]...)
			}
		}
		if steal[k] > cut {
			continue
		}
		r.nwin++
		ops += wops
		lat = append(lat, wlat...)
		rate = append(rate, float64(wops)/width.Seconds())
	}
	sort.Float64s(rate)
	r.nlat, r.nall = len(lat), full
	r.rate = float64(ops) / (float64(r.nwin) * width.Seconds())
	r.rateLo, r.rateHi = rate[0], rate[len(rate)-1]
	r.p50, r.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	for _, w := range ws {
		w.lat = nil
	}
}

// quantile returns the nearest-rank q-quantile of v (sorted in place).
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	k := int(q*float64(len(v))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	return v[k]
}

// liveHeap forces a collection and returns the bytes still in use. It
// collects twice: what sits in a sync.Pool survives one collection in
// the pool's victim cache.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// statsDelta subtracts the monotone engine counters of a from b.
func statsDelta(b, a aru.Stats) aru.Stats {
	return aru.Stats{
		Reads: b.Reads - a.Reads, Writes: b.Writes - a.Writes,
		NewBlocks: b.NewBlocks - a.NewBlocks, DeleteBlocks: b.DeleteBlocks - a.DeleteBlocks,
		NewLists: b.NewLists - a.NewLists, DeleteLists: b.DeleteLists - a.DeleteLists,
		ARUsBegun:       b.ARUsBegun - a.ARUsBegun,
		SegmentsWritten: b.SegmentsWritten - a.SegmentsWritten,
		SegmentsCleaned: b.SegmentsCleaned - a.SegmentsCleaned,
		BlocksRelocated: b.BlocksRelocated - a.BlocksRelocated,
		Checkpoints:     b.Checkpoints - a.Checkpoints,
		CacheHits:       b.CacheHits - a.CacheHits, CacheMisses: b.CacheMisses - a.CacheMisses,
		PredecessorSearchSteps: b.PredecessorSearchSteps - a.PredecessorSearchSteps,
		CommitBatches:          b.CommitBatches - a.CommitBatches,
		BatchedCommits:         b.BatchedCommits - a.BatchedCommits,
		EpochsPublished:        b.EpochsPublished - a.EpochsPublished,
		SnapshotsPurged:        b.SnapshotsPurged - a.SnapshotsPurged,
		PurgeRetries:           b.PurgeRetries - a.PurgeRetries,
	}
}

// image is one device file under the run directory, wrapped in the
// measuring shim (and, in tests, a planted-delay shim beneath it).
type image struct {
	path string
	file *aru.FileDevice
	shim *devShim
}

func (c *config) newImage(name string, size int64) (*image, error) {
	path := filepath.Join(c.dir, name)
	f, err := aru.CreateFileDevice(path, size)
	if err != nil {
		return nil, err
	}
	var dev sharedDevice = f
	if c.wrapDev != nil {
		dev = c.wrapDev(dev)
	}
	return &image{path: path, file: f, shim: newDevShim(dev)}, nil
}

// Before the crash every workload cleans the log until tailFree
// segments are reusable and takes a checkpoint, so the replay window
// starts empty; it then runs a fixed amount more of its own op mix
// (the tail) and flushes. The tail is sized to about 27 segments, under
// the default checkpoint interval of 32, so recovery replays all of it:
// recover_s measures the same amount of the workload's own replay work
// whatever the seed or the timing of the load's checkpoints. tailFree
// covers the tail, the cleaner's default low-water mark of 8 and slack,
// so no cleaner pass (which checkpoints) cuts the tail short.
const tailFree = 40

// crashAndRecover cleans and checkpoints d, runs tail on it and drops
// the device under the live engine, as a crash right after the tail's
// last flush would: the engine is not closed, so no shutdown checkpoint
// is written. tail also drops the caller's references to the engine,
// as a crashed process keeps nothing of it: its heap would otherwise
// stay live and slow the collector inside every timed mount. It then mounts a copy of the image recoverReps times with
// OpenReport and returns each mount's wall time. Recovery writes back
// to its device, so after each mount the byte ranges it wrote are
// restored from the abandoned image, and every mount starts from
// identical bytes. The first recovered disk must pass check.
func (c *config) crashAndRecover(d *aru.Disk, im *image, tail func() error, check func(*aru.Disk) error) (reps, aru.RecoveryReport, error) {
	var (
		rep  aru.RecoveryReport
		durs reps
	)
	if _, err := d.Clean(tailFree); err != nil {
		return durs, rep, fmt.Errorf("clean before the tail: %w", err)
	}
	if err := d.Checkpoint(); err != nil {
		return durs, rep, err
	}
	ck := d.Stats().Checkpoints
	if err := tail(); err != nil {
		return durs, rep, fmt.Errorf("log tail: %w", err)
	}
	if n := d.Stats().Checkpoints - ck; n != 0 {
		return durs, rep, fmt.Errorf("log tail: the engine took %d checkpoint(s) during it, so recovery would not replay it whole", n)
	}
	if err := im.file.Close(); err != nil {
		return durs, rep, err
	}
	work := im.path + ".recover"
	if err := copyFile(work, im.path); err != nil {
		return durs, rep, err
	}
	defer os.Remove(work)
	for i := 0; i < recoverReps; i++ {
		time.Sleep(repGap)
		f, err := aru.OpenFileDevice(work)
		if err != nil {
			return durs, rep, err
		}
		dev := &writeLog{sharedDevice: f}
		// Start every mount from a collected heap, so the collector's
		// work inside the timed mount does not depend on what the load
		// or the previous mount left behind.
		runtime.GC()
		var (
			d *aru.Disk
			r aru.RecoveryReport
		)
		err = durs.time(func() (err error) {
			d, r, err = aru.OpenReport(dev, aru.Params{})
			return err
		})
		if err != nil {
			err = fmt.Errorf("open: %w", err)
		} else if i == 0 {
			rep = r
			err = check(d)
		}
		if d != nil {
			if cerr := d.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("close: %w", cerr)
			}
		}
		_ = f.Close()
		if err == nil {
			err = dev.restore(work, im.path)
		}
		if err != nil {
			return durs, rep, fmt.Errorf("recovery %d: %w", i, err)
		}
	}
	return durs, rep, nil
}

// writeLog is a device that remembers the byte ranges written to it.
type writeLog struct {
	sharedDevice
	ranges [][2]int64 // offset, length
}

func (w *writeLog) WriteAt(p []byte, off int64) error {
	w.ranges = append(w.ranges, [2]int64{off, int64(len(p))})
	return w.sharedDevice.WriteAt(p, off)
}

// restore copies every range written through w from the file src back
// into the file dst and syncs dst. Syncing here, outside the timed
// mount, keeps the next mount's fsyncs from paying for the restore, as
// on a real crash the image is already on the disk.
func (w *writeLog) restore(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	var buf []byte
	for _, r := range w.ranges {
		if int64(cap(buf)) < r[1] {
			buf = make([]byte, r[1])
		}
		buf = buf[:r[1]]
		if _, err := in.ReadAt(buf, r[0]); err != nil {
			out.Close()
			return err
		}
		if _, err := out.WriteAt(buf, r[0]); err != nil {
			out.Close()
			return err
		}
	}
	w.ranges = nil
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func (im *image) remove() {
	_ = im.file.Close()
	_ = os.Remove(im.path)
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	// Sync the copy: on a real crash the image is already on the disk,
	// and recovery's own fsyncs must not pay for the copy's writeback.
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// setupReps is how many times a run formats and populates a fresh
// image; setup_s is the median of the calm ones (reps.median) and the
// last one carries the load.
// fs-churn's set-up writes about 100 MB and takes most of a second, so
// it sets up fewer times, and the I/O of extra set-ups does not spill
// into the load.
const (
	setupReps   = 7
	fcSetupReps = 3
)

// recoverReps is how many times a run mounts the abandoned image;
// recover_s is the median of the calm mounts.
const recoverReps = 21

// repGap spaces out a run's repeated set-ups and mounts, so that a
// burst of interference from other work on the host moves a few of
// them and not their median.
const repGap = 150 * time.Millisecond
