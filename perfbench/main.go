// Command perfbench is the wall-clock benchmark of the ARU logical
// disk on a real file device (real pwrite and fsync). See README.md
// for the workloads and metrics; run it through run.sh.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation's settings. wrapDev and wrapBackend are for
// the benchmark's own tests: they slip a planted-delay shim beneath
// the measuring shims. They are nil in every real run.
type config struct {
	workload    string
	seed        int64
	seconds     float64
	dir         string // device images of this process
	workers     int
	wrapDev     func(sharedDevice) sharedDevice
	wrapBackend func(tracedNetBackend) tracedNetBackend
}

func (c *config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// setups is how many fresh images a run formats and populates: several
// on the untraced run (setup_s is the median of the calm ones), one on
// the traced run.
func (c *config) setups(tr *tracer) int {
	switch {
	case tr != nil:
		return 1
	case c.workload == "fs-churn":
		return fcSetupReps
	}
	return setupReps
}

var workloads = map[string]func(*config, *tracer) (*result, error){
	"net-durable": runNetDurable,
	"read-mvcc":   runReadMVCC,
	"fs-churn":    runFSChurn,
}

func main() {
	var (
		c     config
		trace int
		out   string
	)
	flag.StringVar(&c.workload, "workload", "", "net-durable, read-mvcc or fs-churn")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the measured load")
	flag.IntVar(&trace, "trace", 0, "1: add a traced run and print the per-layer metrics")
	flag.StringVar(&out, "out", ".bench_build/perfbench", "directory for device images and span files")
	flag.Parse()
	run := workloads[c.workload]
	if run == nil || c.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload net-durable|read-mvcc|fs-churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	c.workers = workersFor(c.workload)
	c.dir = filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		fail(err)
	}
	correct, err := bench(&c, trace == 1, out)
	os.RemoveAll(c.dir)
	if err != nil {
		fail(err)
	}
	if !correct {
		os.Exit(1)
	}
}

// workersFor is the number of client connections (net-durable) or
// in-process workers a workload runs, never more than nproc.
func workersFor(workload string) int {
	switch workload {
	case "net-durable":
		return min(ndConns, runtime.NumCPU())
	case "fs-churn":
		return 1
	}
	return runtime.NumCPU()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench runs the untraced load (end-to-end metrics) and, with traced,
// a second, traced load (per-layer metrics), and prints the result.
// The traced invocation splits its time between the two loads, so it
// takes as long as an untraced one; the untraced half is the base for
// the tracing overhead.
func bench(c *config, traced bool, out string) (correct bool, _ error) {
	if traced {
		c.seconds /= 2
	}
	host := hostInfo(c.dir)
	hb, _ := json.Marshal(map[string]any{"host": host, "workload": c.workload, "seed": c.seed, "seconds": c.seconds, "workers": c.workers})
	fmt.Println(string(hb))

	run := workloads[c.workload]
	steal0, total0 := cpuTimes()
	base, err := run(c, nil)
	steal1, total1 := cpuTimes()
	correct, err = outcome(base, err)
	if err != nil {
		return false, err
	}
	e2e := endToEnd(base)
	printMetrics("end-to-end", e2e)
	fmt.Printf("# %d of %d ops failed (failed_ratio %.6f); rate and latency over %d calm of %d windows (rate %.0f..%.0f), %d latency samples\n",
		base.failed, base.attempted, float64(base.failed)/float64(base.attempted), base.nwin, base.nall, base.rateLo, base.rateHi, base.nlat)
	fmt.Printf("# setups %v; recoveries %v (%d entries, %d segments, %d delta pages replayed)\n",
		base.setup.dur, base.recov.dur, base.rep.EntriesReplayed, base.rep.SegmentsReplayed, base.rep.DeltaPagesReplayed)
	fmt.Printf("# %.1f%% of the machine's CPU time during the run was stolen by the hypervisor\n",
		100*ratio(steal1-steal0, total1-total0))
	attempted, failed, shown := base.attempted, base.failed, e2e

	if traced {
		tr := newTracer()
		tres, err := run(c, tr)
		ok, err := outcome(tres, err)
		if err != nil {
			return false, err
		}
		correct = correct && ok
		tr.link()
		printMetrics("traced end-to-end", endToEnd(tres))
		shown = perLayer(tres, base)
		printMetrics("per-layer", shown)
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.tsv", c.workload, c.seed))
		if err := tr.write(path); err != nil {
			return false, err
		}
		fmt.Printf("# %d spans written to %s\n", len(tr.spans), path)
		attempted += tres.attempted
		failed += tres.failed
	}

	m := map[string]any{}
	for _, x := range shown {
		m[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	line, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": m})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return correct, nil
}

// outcome separates a wrong answer (reported, run marked incorrect)
// from an error that stops the benchmark, and reports the first
// failed op of a run.
func outcome(r *result, err error) (correct bool, _ error) {
	if r != nil && r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d op(s) failed, first: %v\n", r.failed, r.firstErr)
	}
	if errors.Is(err, errWrong) {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG ANSWER:", err)
		return false, nil
	}
	return err == nil, err
}

type metric struct {
	name  string
	value float64
	unit  string
}

func printMetrics(title string, ms []metric) {
	fmt.Printf("# %s\n", title)
	for _, m := range ms {
		fmt.Printf("%-28s %16.6f %s\n", m.name, m.value, m.unit)
	}
}

const mib = 1 << 20

// endToEnd is what a user of the disk sees on this workload.
func endToEnd(r *result) []metric {
	return []metric{
		{"ops_per_s", r.rate, "1/s"},
		{"op_p50_us", float64(r.p50) / 1e3, "us"},
		{"op_p99_us", float64(r.p99) / 1e3, "us"},
		{"write_amp", ratio(r.dev.writeBytes, r.payload), "ratio"},
		{"recover_s", r.recov.median().Seconds(), "s"},
		{"heap_mib", float64(r.heap) / mib, "MiB"},
		{"setup_s", r.setup.median().Seconds(), "s"},
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
