package main

import (
	"sort"
)

// perLayer derives the per-layer metrics from the traced run r: span
// medians and self times from its trace, counts from its engine Stats
// deltas, device counters and recovery report. base is the untraced
// run of the same invocation, for the tracing overhead. A layer the
// workload bypasses reports 0.
//
// Medians over ops are taken over the ops whose spans the trace holds:
// every ARU on net-durable, every create/read/remove on fs-churn, and
// the sampled reads plus every overwrite on read-mvcc.
func perLayer(r, base *result) []metric {
	sp := r.tr.spans
	per := float64(r.attempted)
	perOp := func(n int64) float64 { return float64(n) / per }

	// Per-op sums for net-durable: client RPC time, RPC time not spent in
	// the engine, engine commit time, and commit time not overlapped by
	// device I/O, plus the other engine calls.
	type opSums struct {
		rpc, rpcSelf, commit, commitSelf, core int64
		committed                              bool
	}
	ops := map[int64]*opSums{}
	get := func(op int64) *opSums {
		o := ops[op]
		if o == nil {
			o = &opSums{}
			ops[op] = o
		}
		return o
	}
	busy := deviceUnion(sp)
	var (
		byName    [numSpanNames][]int64
		childTime = make([]int64, len(sp))
	)
	for i := range sp {
		if p := sp[i].parent; p >= 0 {
			childTime[p] += sp[i].dur()
		}
	}
	for i := range sp {
		s := &sp[i]
		byName[s.name] = append(byName[s.name], s.dur())
		if r.rpcs == 0 || s.op < 0 {
			continue
		}
		switch {
		case s.name == spRPC:
			o := get(s.op)
			o.rpc += s.dur()
			o.rpcSelf += s.dur() - childTime[i]
		case s.name.isCommit():
			o := get(s.op)
			o.committed = true
			o.commit += s.dur()
			o.commitSelf += s.dur() - busy.overlap(s.start, s.end)
		case s.name.isCore():
			get(s.op).core += s.dur()
		}
	}
	var rpc, rpcSelf, commit, commitSelf, core []int64
	for _, o := range ops {
		if o.committed {
			rpc = append(rpc, o.rpc)
			rpcSelf = append(rpcSelf, o.rpcSelf)
			commit = append(commit, o.commit)
			commitSelf = append(commitSelf, o.commitSelf)
			core = append(core, o.core)
		}
	}
	if r.rpcs == 0 {
		// In-process workloads: the engine op is the benchmark's own call.
		core = byName[spRead]
	}
	us := func(v []int64) float64 { return float64(quantile(v, 0.5)) / 1e3 }

	st, dev, rep := r.st, r.dev, r.rep
	ldOps := st.Reads + st.Writes + st.NewBlocks + st.DeleteBlocks + st.NewLists + st.DeleteLists + st.ARUsBegun
	var fsLDOps float64
	if len(byName[spFSCreate])+len(byName[spFSRead])+len(byName[spFSRemove]) > 0 {
		fsLDOps = perOp(ldOps)
	}
	recNs := float64(r.recov.median().Nanoseconds())
	var nsPerEntry float64
	if rep.EntriesReplayed > 0 {
		nsPerEntry = recNs / float64(rep.EntriesReplayed)
	}
	var overhead float64
	if base.rate > 0 {
		overhead = 1 - r.rate/base.rate
	}

	return []metric{
		{"ldnet.rpc_us", us(rpc), "us"},
		{"ldnet.self_us", us(rpcSelf), "us"},
		{"ldnet.rpcs_per_op", perOp(r.rpcs), "1/op"},
		{"core.commit_us", us(commit), "us"},
		{"core.commit_self_us", us(commitSelf), "us"},
		{"core.op_us", us(core), "us"},
		{"core.commits_per_batch", ratio(st.BatchedCommits, st.CommitBatches), "ratio"},
		{"core.epochs_per_op", perOp(st.EpochsPublished), "1/op"},
		{"core.purged_per_epoch", ratio(st.SnapshotsPurged, st.EpochsPublished), "ratio"},
		{"core.purge_retries", float64(st.PurgeRetries), "count"},
		{"core.overwrite_us", us(byName[spOverwrite]), "us"},
		{"core.cache_hit_ratio", ratio(st.CacheHits, st.CacheHits+st.CacheMisses), "ratio"},
		{"core.cleaned_per_seg", ratio(st.SegmentsCleaned, st.SegmentsWritten), "ratio"},
		{"core.relocated_per_block", ratio(st.BlocksRelocated, r.userBlks), "ratio"},
		{"core.ckpts_per_kop", 1000 * perOp(st.Checkpoints), "1/kop"},
		{"core.pred_steps_per_op", perOp(st.PredecessorSearchSteps), "1/op"},
		{"core.recover_entries", float64(rep.EntriesReplayed), "count"},
		{"core.recover_segments", float64(rep.SegmentsReplayed), "count"},
		{"core.recover_delta_pages", float64(rep.DeltaPagesReplayed), "count"},
		{"core.recover_ns_per_entry", nsPerEntry, "ns"},
		{"disk.writes_per_op", perOp(dev.writes), "1/op"},
		{"disk.write_bytes_per_op", perOp(dev.writeBytes), "B/op"},
		{"disk.syncs_per_op", perOp(dev.syncs), "1/op"},
		{"disk.sync_us", us(byName[spDevSync]), "us"},
		{"disk.write_us", us(byName[spDevWrite]), "us"},
		{"disk.reads_per_op", perOp(dev.reads), "1/op"},
		{"disk.read_us", us(byName[spDevRead]), "us"},
		{"disk.busy_share", float64(busy.total()) / float64(r.t1-r.t0), "share"},
		{"minixfs.create_us", us(byName[spFSCreate]), "us"},
		{"minixfs.read_us", us(byName[spFSRead]), "us"},
		{"minixfs.remove_us", us(byName[spFSRemove]), "us"},
		{"minixfs.sync_us", us(byName[spFSSync]), "us"},
		{"minixfs.ld_ops_per_op", fsLDOps, "1/op"},
		{"trace.overhead_share", overhead, "share"},
	}
}

// intervals is a sorted list of disjoint [start, end) intervals.
type intervals [][2]int64

// deviceUnion merges the intervals of all device spans, from any
// goroutine: the time the device was busy.
func deviceUnion(sp []span) intervals {
	var iv intervals
	for i := range sp {
		if sp[i].name.isDevice() {
			iv = append(iv, [2]int64{sp[i].start, sp[i].end})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var out intervals
	for _, x := range iv {
		if n := len(out); n > 0 && x[0] <= out[n-1][1] {
			if x[1] > out[n-1][1] {
				out[n-1][1] = x[1]
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

func (iv intervals) total() int64 {
	var t int64
	for _, x := range iv {
		t += x[1] - x[0]
	}
	return t
}

// overlap is how much of [s, e) the intervals cover.
func (iv intervals) overlap(s, e int64) int64 {
	k := sort.Search(len(iv), func(k int) bool { return iv[k][1] > s })
	var t int64
	for ; k < len(iv) && iv[k][0] < e; k++ {
		t += min(e, iv[k][1]) - max(s, iv[k][0])
	}
	return t
}
