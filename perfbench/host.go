package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host block printed with every result set: the
// figures only mean something next to the machine they came from.
func hostInfo(dir string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"image_fs":   fsType(dir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes returns the machine's stolen and total CPU time so far, in
// clock ticks, from /proc/stat; zeros where there is none. Stolen time
// is time a virtual CPU was ready to run but the hypervisor ran
// something else: on a shared host it slows every timed metric.
func cpuTimes() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:9] { // guest time is already counted in user
		v, _ := strconv.ParseInt(x, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
