package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanName is the layer call a span covers.
type spanName uint8

const (
	spRPC       spanName = iota // ldnet client call (benchmark → NetClient)
	spBegin                     // core: BeginARU
	spNewBlock                  // core: NewBlock
	spWrite                     // core: Write
	spRead                      // core: Read
	spDelete                    // core: DeleteBlock
	spEndARU                    // core: EndARU (commit path)
	spFlush                     // core: Flush (commit path)
	spAbort                     // core: AbortARU
	spCoreOther                 // core: any other backend call
	spOverwrite                 // read-mvcc: one whole overwrite ARU on *aru.Disk
	spDevRead                   // disk: ReadAt / ReadAtShared
	spDevWrite                  // disk: WriteAt
	spDevSync                   // disk: Sync
	spFSCreate                  // minixfs: Create + write
	spFSRead                    // minixfs: Open + read
	spFSRemove                  // minixfs: Remove
	spFSSync                    // minixfs: Sync
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"ldnet.rpc", "core.begin", "core.newblock", "core.write", "core.read",
	"core.delete", "core.endaru", "core.flush", "core.abort", "core.other",
	"core.overwrite", "disk.read", "disk.write", "disk.sync",
	"minixfs.create", "minixfs.read", "minixfs.remove", "minixfs.sync",
}

func (n spanName) isDevice() bool { return n >= spDevRead && n <= spDevSync }
func (n spanName) isCommit() bool { return n == spEndARU || n == spFlush }
func (n spanName) isCore() bool   { return n >= spBegin && n <= spOverwrite }

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch. Calls made by the benchmark's own loops carry the
// issuing client or worker (conn) and the benchmark op index (op);
// calls arriving through a shim carry conn -1 and, from the backend
// shim, the ARU they named. parent is resolved at exit (see link).
type span struct {
	start, end int64
	aru        uint64
	op         int64
	parent     int32
	conn       int16
	name       spanName
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory for the traced run. A nil *tracer is
// the untraced run: every method is a no-op behind one nil check.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span; its parent is resolved later by link.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// link resolves every span's parent, then its op. Spans carry no
// goroutine identity (reading it costs tens of µs a call), so:
//
//   - The benchmark's own spans of one client or worker nest like a
//     call stack: the parent is the innermost one of the same conn that
//     contains the span.
//   - An engine call the ldnet server made is matched to the client
//     RPC that caused it through the ARU it names: the RPC of the
//     client that began that ARU whose interval contains the call (a
//     client's RPCs are sequential, so that RPC is unique). A Flush
//     names no ARU; the server issues it right after the EndARU of a
//     CommitDurable, so it belongs to the first EndARU, in time order,
//     whose RPC contains it.
//   - A device call belongs to the earliest-started engine or FS span
//     whose interval contains it.
func (t *tracer) link() {
	sp := t.spans
	byStart := func(idx []int32) {
		sort.Slice(idx, func(a, b int) bool {
			x, y := &sp[idx[a]], &sp[idx[b]]
			if x.start != y.start {
				return x.start < y.start
			}
			return x.end > y.end
		})
	}
	// containing returns the span of idx (sorted by start) that starts
	// last at or before s, if it also ends at or after e; else -1.
	containing := func(idx []int32, s, e int64) int32 {
		k := sort.Search(len(idx), func(k int) bool { return sp[idx[k]].start > s }) - 1
		if k >= 0 && sp[idx[k]].end >= e {
			return idx[k]
		}
		return -1
	}

	byConn := map[int16][]int32{}
	for i := range sp {
		if sp[i].conn >= 0 {
			byConn[sp[i].conn] = append(byConn[sp[i].conn], int32(i))
		}
	}
	for _, idx := range byConn {
		byStart(idx)
		var stack []int32
		for _, i := range idx {
			for len(stack) > 0 && sp[stack[len(stack)-1]].end < sp[i].end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				sp[i].parent = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}

	// Engine calls made by the ldnet server.
	rpcs := map[int16][]int32{}
	aruConn := map[uint64]int16{}
	var ends, flushes []int32
	for i := range sp {
		s := &sp[i]
		switch {
		case s.name == spRPC:
			rpcs[s.conn] = append(rpcs[s.conn], int32(i))
			if s.aru != 0 {
				aruConn[s.aru] = s.conn
			}
		case s.conn < 0 && s.name == spFlush:
			flushes = append(flushes, int32(i))
		}
	}
	for _, idx := range rpcs {
		byStart(idx)
	}
	for i := range sp {
		s := &sp[i]
		if s.conn >= 0 || !s.name.isCore() || s.aru == 0 {
			continue
		}
		if c, ok := aruConn[s.aru]; ok {
			s.parent = containing(rpcs[c], s.start, s.end)
		}
		if s.name == spEndARU && s.parent >= 0 {
			ends = append(ends, int32(i))
		}
	}
	sort.Slice(ends, func(a, b int) bool { return sp[ends[a]].end < sp[ends[b]].end })
	byStart(flushes)
	f := 0
	for _, e := range ends {
		for f < len(flushes) && sp[flushes[f]].start < sp[e].end {
			f++
		}
		if f == len(flushes) {
			break
		}
		if rpc := sp[e].parent; sp[rpc].end >= sp[flushes[f]].end {
			sp[flushes[f]].parent = rpc
			f++
		}
	}

	// Device calls.
	var hosts, devs []int32
	for i := range sp {
		switch n := sp[i].name; {
		case n.isDevice():
			devs = append(devs, int32(i))
		case n != spRPC:
			hosts = append(hosts, int32(i))
		}
	}
	byStart(hosts)
	var longest int64
	for _, h := range hosts {
		longest = max(longest, sp[h].dur())
	}
	for _, d := range devs {
		k := sort.Search(len(hosts), func(k int) bool { return sp[hosts[k]].start > sp[d].start }) - 1
		for ; k >= 0 && sp[hosts[k]].start >= sp[d].start-longest; k-- {
			if sp[hosts[k]].end >= sp[d].end {
				sp[d].parent = hosts[k]
			}
		}
	}
	t.inheritOps()
}

// inheritOps gives every span the op of its nearest ancestor that has
// one. Parents can sit at any index, so it resolves chains on demand.
func (t *tracer) inheritOps() {
	sp := t.spans
	done := make([]bool, len(sp))
	var resolve func(i int32) int64
	resolve = func(i int32) int64 {
		s := &sp[i]
		if done[i] {
			return s.op
		}
		done[i] = true
		if s.op < 0 && s.parent >= 0 {
			s.op = resolve(s.parent)
		}
		return s.op
	}
	for i := range sp {
		resolve(int32(i))
	}
}

// write dumps the spans as tab-separated text: name, start and end in
// ns since the run's epoch, parent index (-1 = root), op, conn, ARU.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "# name\tstart_ns\tend_ns\tparent\top\tconn\taru")
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.start, s.end, s.parent, s.op, s.conn, s.aru)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
