package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// TestWorkloads runs every workload briefly, untraced and traced, and
// checks that it finishes correct, that no op fails, and that the
// metrics it prints are exactly the ones BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("formats and loads three real files")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) []string {
		var s []string
		for _, m := range ms {
			s = append(s, m.name+" "+m.unit)
		}
		sort.Strings(s)
		return s
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var s []string
		for _, m := range ms {
			s = append(s, m.Name+" "+m.Unit)
		}
		sort.Strings(s)
		return s
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			c := &config{workload: name, seed: 3, seconds: 1, dir: t.TempDir(), workers: workersFor(name)}
			base, err := run(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			r, err := run(c, tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range []*result{base, r} {
				if x.failed != 0 || x.attempted == 0 {
					t.Fatalf("%d of %d ops failed: %v", x.failed, x.attempted, x.firstErr)
				}
			}
			tr.link()
			if got, want := names(endToEnd(base)), declared(decl.EndToEnd); !equal(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
			}
			if got, want := names(perLayer(r, base)), declared(decl.PerLayer); !equal(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for _, m := range endToEnd(base) {
				if m.value <= 0 {
					t.Errorf("end-to-end metric %s is %v", m.name, m.value)
				}
			}
		})
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCalmWindows checks that rate and latency come from the windows
// the hypervisor disturbed least, whatever the program did in them.
func TestCalmWindows(t *testing.T) {
	const width = 500 * time.Millisecond
	load := func(steal []float64, slow map[int]bool) *result {
		w := newWindows(time.Time{}, width)
		for k := range steal {
			n, lat := 100, time.Millisecond
			if slow[k] {
				n, lat = 10, 50*time.Millisecond
			}
			at := time.Time{}.Add(time.Duration(k)*width + width/2)
			for i := 0; i < n; i++ {
				w.done(at, 1)
				w.sample(at, lat)
			}
		}
		r := &result{elapsed: time.Duration(len(steal)) * width}
		r.setWindows([]*windows{w}, steal)
		return r
	}
	// Stolen windows are dropped, and slow windows on a quiet host count.
	r := load([]float64{0, 0, 0.2, 0, 0.3, 0, 0.01, 0}, map[int]bool{2: true, 4: true, 5: true})
	if r.nwin != 6 || r.nall != 8 {
		t.Errorf("%d calm of %d windows, want 6 of 8", r.nwin, r.nall)
	}
	if want := 510 / (6 * width.Seconds()); r.rate != want {
		t.Errorf("rate %v, want %v", r.rate, want)
	}
	if r.p99 != int64(50*time.Millisecond) {
		t.Errorf("p99 %v, want the slow calm window's 50ms", time.Duration(r.p99))
	}
	// On a host that steals in every window, the least stolen quarter counts.
	r = load([]float64{0.4, 0.1, 0.3, 0.2, 0.5, 0.6, 0.7, 0.8}, map[int]bool{0: true, 2: true, 4: true, 5: true, 6: true, 7: true})
	if r.nwin != 2 || r.rate != 200 || r.p99 != int64(time.Millisecond) {
		t.Errorf("%d calm windows at %v/s, p99 %v; want 2 at 200/s, p99 1ms", r.nwin, r.rate, time.Duration(r.p99))
	}
}
