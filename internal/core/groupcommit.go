package core

import (
	"fmt"
	"sync"
	"time"

	"aru/internal/obs"
	"aru/internal/seg"
)

// Group commit (DESIGN.md §11): concurrent durability callers — Flush,
// CommitDurable, and the network server's per-session syncs — enqueue
// on a commit broker instead of each paying a full device sync under
// d.mu. One caller per batch becomes the leader: it seals the current
// partial segment under d.mu, swaps in a fresh segment buffer so
// writers proceed immediately, then performs the device write and a
// single dev.Sync() with d.mu released, and finally wakes the whole
// batch. N concurrent committers thus share one sync, and the device
// never spins while holding the engine lock.

// gcBatch is one group-commit batch: the set of durability callers
// woken together by one leader pass. All fields except syncDur are
// guarded by the broker mutex; syncDur is written by the (single)
// leader with the broker mutex released and read back under it after
// the leader finishes.
type gcBatch struct {
	joiners int // callers that joined before the cutoff
	done    bool
	err     error
	syncDur time.Duration // measured cost of this batch's device sync
}

// commitBroker serializes batch leadership and parks waiters.
//
// Protocol: force() joins the pending batch (creating it if needed)
// and loops under the broker mutex — if its batch is done it returns
// the batch error; if no leader is active it becomes the leader and
// runs the batch; otherwise it waits on the condvar. The leader's
// first action (under d.mu) is the cutoff: it clears pending so later
// arrivals form the *next* batch, because their commits may not be
// sealed into this one. Completion sets done under the broker mutex
// and broadcasts, so a waiter can never miss the wakeup: it re-checks
// done before every wait.
type commitBroker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending *gcBatch // batch the next force() joins; nil until someone does
	leading bool     // a leader is currently running a batch

	// Adaptive batching window. A leader that seals the instant it is
	// elected catches only the committers whose EndARU already landed;
	// under steady concurrent load that alternates half-size batches.
	// When the previous batch had multiple joiners, the next leader
	// first sleeps a small fraction of the observed sync cost so
	// in-flight commits can join. A lone committer never pays the
	// window (lastJoiners stays 1).
	lastJoiners int
	lastSyncDur time.Duration
}

// batchWindow caps the leader's batching pause: the window is a
// quarter of the last observed sync cost, never more than this.
const batchWindow = time.Millisecond

// sealedSeg is one segment sealed by a batch leader whose device write
// and sync are still pending. Until the entry completes, the segment's
// image stays readable in memory (readPhys), the segment index cannot
// be reused or cleaned, and the segments its promotion freed stay
// quarantined from reuse. written survives a failed sync so the retry
// does not rewrite the data.
type sealedSeg struct {
	idx     int          // segment index on the device
	seq     uint64       // log sequence number in the trailer
	bld     *seg.Builder // owns img and ext; reset and reused after completion
	img     []byte       // sealed image (aliases bld's buffer)
	ext     []seg.Extent // the byte ranges to write (alias bld's buffer)
	commits int          // commit records sealed into the segment
	stamps  []commitStamp
	frees   []int // segments freed by this seal's promotions (quarantined)
	written bool  // device write completed
	claimed bool  // the in-flight leader is writing/syncing it
}

// forceCommit makes everything committed so far durable through the
// group-commit broker and returns once the covering batch completes.
func (d *LLD) forceCommit() error {
	b := &d.gc
	b.mu.Lock()
	if b.pending == nil {
		b.pending = new(gcBatch)
	}
	bat := b.pending
	bat.joiners++
	for !bat.done {
		if b.leading {
			b.cond.Wait()
			continue
		}
		b.leading = true
		window := time.Duration(0)
		if b.lastJoiners > 1 {
			if window = b.lastSyncDur / 4; window > batchWindow {
				window = batchWindow
			}
		}
		b.mu.Unlock()
		if window > 0 {
			time.Sleep(window)
		}
		err := d.leadBatch(bat)
		b.mu.Lock()
		bat.err = err
		bat.done = true
		b.leading = false
		b.lastJoiners = bat.joiners
		if bat.syncDur > 0 {
			b.lastSyncDur = bat.syncDur
		}
		b.cond.Broadcast()
	}
	err := bat.err
	b.mu.Unlock()
	return err
}

// batchTrace carries one batch's causal identity across the leader
// pass: the batch id (assigned under d.mu once the leader claims
// work), the batch span (root of the batch's own trace; seg-flush and
// device-sync spans parent on it), and the sync timing measured with
// d.mu released. Zero span/trace means span recording is off.
type batchTrace struct {
	id    uint64        // batch id (d.batchSeq)
	trace uint64        // the batch's trace
	span  uint64        // the SpanCommitBatch id
	t0    time.Duration // leader start (obs timebase)
	st0   time.Duration // device-sync start
	sdur  time.Duration // device-sync duration
}

// leadBatch runs one batch as its leader: cutoff, seal under d.mu,
// device I/O outside d.mu, completion under d.mu.
func (d *LLD) leadBatch(bat *gcBatch) error {
	var bt batchTrace
	if d.obs.SpanEnabled() {
		bt.t0 = d.obs.Now()
	}
	d.mu.Lock()
	// Cutoff. Everything sealed below is covered by this batch; a
	// caller that arrives after this point joins the next batch (its
	// commits may still be in the fresh builder when we seal).
	b := &d.gc
	b.mu.Lock()
	if b.pending == bat {
		b.pending = nil
	}
	b.mu.Unlock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if err := d.sealBatchLocked(); err != nil {
		d.publishLocked()
		d.mu.Unlock()
		return err
	}
	// Claim the queue. Only one leader runs at a time and the serial
	// drain paths require an idle broker, so every entry is unclaimed
	// here — including entries a failed batch left behind for retry.
	// The work slice is the engine's reusable scratch: only the single
	// in-flight leader touches it, so it may be carried across the
	// device I/O below with d.mu released.
	work := d.gcWork[:0]
	for _, e := range d.sealed {
		if !e.claimed {
			e.claimed = true
			work = append(work, e)
		}
	}
	d.gcWork = work
	if len(work) > 0 {
		d.batchSeq++
		bt.id = d.batchSeq
		if d.obs.SpanEnabled() {
			bt.trace = d.obs.NextID()
			bt.span = d.obs.NextID()
		}
	}
	needSync := len(work) > 0 || d.devDirty
	wgen := d.wgen
	// Publish the sealed state before releasing the lock: readers that
	// race the batch I/O must already see the sealed images (and the
	// promoted records the seal produced).
	d.publishLocked()
	d.mu.Unlock()

	if !needSync {
		return nil
	}

	// Device I/O with d.mu released: writers and readers proceed
	// against the fresh builder while the device spins.
	var ioErr error
	for _, e := range work {
		if e.written {
			continue // a failed sync left it written; only re-sync
		}
		if ioErr = d.writeSegment(e.idx, e.seq, e.ext, &bt); ioErr != nil {
			break
		}
		e.written = true
	}
	synced := false
	if ioErr == nil && !d.params.UnsafeNoSyncOnFlush && !d.params.UnsafeAckBeforeSync {
		t0 := time.Now()
		if bt.span != 0 {
			bt.st0 = d.obs.Now()
		}
		if err := d.dev.Sync(); err != nil {
			ioErr = fmt.Errorf("lld: sync: %w", err)
		} else {
			synced = true
			bat.syncDur = time.Since(t0)
			bt.sdur = bat.syncDur
		}
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.publishLocked()
	if ioErr != nil {
		// Leave every entry queued: written segments keep their flag so
		// the next batch only re-syncs them, and no commit is
		// acknowledged durable (every waiter of this batch gets the
		// error). The in-memory image keeps serving reads meanwhile.
		for _, e := range work {
			e.claimed = false
		}
		return ioErr
	}
	d.finishBatchLocked(work, synced, wgen, &bt)
	for i := range work {
		work[i] = nil
	}
	d.gcWork = work[:0]
	return nil
}

// sealBatchLocked seals the current partial segment into the pending
// queue without touching the device: buffered committed versions
// materialize, queued commit records are emitted, the builder's image
// moves into a sealedSeg entry, and a fresh builder is swapped in so
// writers never wait on the batch I/O. The durable watermark advances
// exactly as for a synchronous seal — promotion is an in-memory
// transition; client-visible durability is only acknowledged when the
// batch's sync completes. Caller holds d.mu.
func (d *LLD) sealBatchLocked() error {
	if d.curSeg < 0 {
		return nil // mounted read-only so far: nothing buffered
	}
	d.materializeCommitted()
	for _, e := range d.pendingCommits {
		d.builder.AddEntry(e)
		d.stats.EntriesLogged.Add(1)
	}
	commits := len(d.pendingCommits)
	d.pendingCommits = d.pendingCommits[:0]
	if d.builder.Empty() {
		return nil
	}
	e := d.getSealed()
	e.idx = d.curSeg
	e.seq = d.nextSeq
	e.bld = d.builder
	e.ext = d.builder.Seal(d.nextSeq)
	e.img = d.builder.Image()
	e.commits = commits
	e.stamps = d.commitStamps
	d.commitStamps = nil
	d.sealed = append(d.sealed, e)
	d.sealedBySeg[uint32(e.idx)] = e
	d.segSeq[e.idx] = e.seq
	d.nextSeq++
	d.segsSinceC++
	d.durableTS = d.lastTS()
	// Promotion may free segments holding versions this seal
	// supersedes. Until the batch syncs, those segments must not be
	// rewritten: a crash could keep the rewrite but lose this segment,
	// destroying data an earlier sync already guaranteed. Record the
	// frees and quarantine them from reuse.
	d.sealFrees = &e.frees
	d.promote()
	d.sealFrees = nil
	for _, s := range e.frees {
		d.reuseQuarantine[s]++
	}
	// Double buffering: the sealed image aliases the old builder's
	// buffer, so hand the builder to the entry and continue on a spare.
	d.builder = d.takeBuilder()
	d.curSeg = -1 // no open segment until the pick below succeeds
	next, err := d.pickSeg()
	if err != nil {
		// Out of reusable segments for the *next* seal. The sealed
		// entry stays queued (the batch still writes it); the open
		// segment is re-picked lazily by ensureRoom once space frees.
		return err
	}
	d.curSeg = next
	d.freeCache = d.reusableCount()
	return nil
}

// finishBatchLocked completes a successfully written batch: entries
// leave the queue, their quarantines lift, commit latencies are
// observed, and builders return to the spare pool. synced reports
// whether the device sync ran (false only under UnsafeAckBeforeSync);
// wgen is the leader's pre-I/O snapshot of the write generation, used
// to clear devDirty only if no unsynced write raced the batch; bt is
// the leader's batch identity — every durable ack drained here names
// bt.id and the sync id assigned below. Caller holds d.mu.
func (d *LLD) finishBatchLocked(work []*sealedSeg, synced bool, wgen uint64, bt *batchTrace) {
	var syncID uint64
	if synced {
		d.syncSeq++
		syncID = d.syncSeq
	}
	if len(work) > 0 {
		d.lastBatch.Store(bt.id)
	}
	commits := 0
	for _, e := range work {
		commits += e.commits
		delete(d.sealedBySeg, uint32(e.idx))
		for _, s := range e.frees {
			if d.reuseQuarantine[s]--; d.reuseQuarantine[s] <= 0 {
				delete(d.reuseQuarantine, s)
			}
		}
		d.emitStampsDurable(e.stamps, bt.id, syncID)
		d.putBuilder(e.bld)
		if d.commitStamps == nil && cap(e.stamps) > 0 {
			// Return the stamp capacity: nothing was stamped since the
			// cutoff, so the next EndARU appends into the old backing.
			d.commitStamps = e.stamps[:0]
		}
		e.stamps = nil
		d.putSealed(e)
	}
	// Only one leader runs at a time and broker seals are the sole
	// producer, so the claimed entries are the entire queue.
	d.sealed = d.sealed[:0]
	if synced {
		if d.wgen == wgen {
			d.devDirty = false
		}
		// Note: d.commitStamps is deliberately NOT drained here — any
		// stamp queued after this batch's cutoff belongs to a commit
		// record still in pendingCommits, which this sync does not
		// cover. Each batch observes exactly the stamps its seal moved
		// into the entry.
	} else if len(work) > 0 {
		// UnsafeAckBeforeSync: the batch is acknowledged with its
		// segments unsynced — the deliberate broker bug the crash
		// checker must catch.
		d.devDirty = true
	}
	if len(work) > 0 {
		d.stats.CommitBatches.Add(1)
		d.stats.BatchedCommits.Add(int64(commits))
		if d.obs != nil {
			d.obs.Emit(obs.EvCommitBatch, 0, uint64(commits), uint64(len(work)))
			d.obs.Observe(obs.HistCommitBatch, time.Duration(commits))
		}
		if bt.span != 0 {
			now := d.obs.Now()
			d.obs.EmitSpan(obs.Span{
				Trace: bt.trace, ID: bt.span,
				Kind: obs.SpanCommitBatch, Start: bt.t0, Dur: now - bt.t0,
				Arg1: bt.id, Arg2: uint64(commits),
			})
			if synced {
				d.obs.EmitSpan(obs.Span{
					Trace: bt.trace, ID: d.obs.NextID(), Parent: bt.span,
					Kind: obs.SpanDeviceSync, Start: bt.st0, Dur: bt.sdur,
					Arg1: syncID,
				})
			}
		}
	}
	// The batch is fully applied: maintenance may publish intermediate
	// epochs (checkpoint, cleaner batches).
	d.pubSafe = true
	d.maybeMaintain()
	d.pubSafe = false
}

// writeSealedLocked writes every not-yet-written sealed segment to the
// device, in seal order. Used by the serial drain paths (flushLocked);
// callers hold d.mu and have verified the broker is idle (gcBusyLocked),
// so no entry is claimed.
func (d *LLD) writeSealedLocked() error {
	for _, e := range d.sealed {
		if e.written {
			continue
		}
		if err := d.writeSegment(e.idx, e.seq, e.ext, nil); err != nil {
			return err
		}
		e.written = true
	}
	return nil
}

// completeSealedLocked retires every sealed entry after a successful
// device sync on the serial path. Caller holds d.mu.
func (d *LLD) completeSealedLocked() {
	if len(d.sealed) == 0 {
		return
	}
	for _, e := range d.sealed {
		delete(d.sealedBySeg, uint32(e.idx))
		for _, s := range e.frees {
			if d.reuseQuarantine[s]--; d.reuseQuarantine[s] <= 0 {
				delete(d.reuseQuarantine, s)
			}
		}
		d.emitStampsDurable(e.stamps, 0, d.syncSeq)
		d.putBuilder(e.bld)
		if d.commitStamps == nil && cap(e.stamps) > 0 {
			d.commitStamps = e.stamps[:0]
		}
		e.stamps = nil
		d.putSealed(e)
	}
	d.sealed = d.sealed[:0]
}

// gcBusyLocked reports whether a batch leader currently holds claimed
// entries — i.e. is performing device I/O with d.mu released. The
// serial flush/checkpoint paths must not run concurrently with it; the
// public entry points drain the broker first (drainBroker). Caller
// holds d.mu.
func (d *LLD) gcBusyLocked() bool {
	for _, e := range d.sealed {
		if e.claimed {
			return true
		}
	}
	return false
}

// lockDrained acquires d.mu with the broker idle: while a leader is
// mid-flight it joins the broker (waiting the batch out) and retries.
// Checkpoint, Close and Clean use it so their serial writes and syncs
// never interleave with a batch's device I/O. The returned engine
// state may be closed; callers re-check d.closed.
func (d *LLD) lockDrained() {
	for {
		d.mu.Lock()
		if !d.gcBusyLocked() {
			return
		}
		d.mu.Unlock()
		// Ride the in-flight batch out (error irrelevant here: a failed
		// batch unclaims its entries, which is all we need).
		_ = d.forceCommit()
	}
}

// takeBuilder returns a spare segment builder (or a fresh one).
// Caller holds d.mu.
func (d *LLD) takeBuilder() *seg.Builder {
	if n := len(d.spareBuilders); n > 0 {
		b := d.spareBuilders[n-1]
		d.spareBuilders = d.spareBuilders[:n-1]
		return b
	}
	return seg.NewBuilder(d.params.Layout)
}

// putBuilder retires a builder whose segment was written: published
// epochs may still read its committed slots (directly, or through a
// sealed image aliasing its buffer), so the Reset is deferred to
// recycleBuilder when the retiring epoch drains. Caller holds d.mu.
func (d *LLD) putBuilder(b *seg.Builder) {
	d.ret.builders = append(d.ret.builders, b)
}

// recycleBuilder resets a drained builder and pools it for the next
// seal (purge path only). Caller holds d.mu.
func (d *LLD) recycleBuilder(b *seg.Builder) {
	if len(d.spareBuilders) >= 4 {
		return // cap the pool; the steady state needs at most a couple
	}
	b.Reset()
	d.spareBuilders = append(d.spareBuilders, b)
}
