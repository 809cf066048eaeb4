// Package core implements LLD, the log-structured Logical Disk, with
// concurrent atomic recovery units (ARUs) — the contribution of
// "Atomic Recovery Units: Failure Atomicity for Logical Disks"
// (Grimm, Hsieh, Kaashoek, de Jonge; ICDCS 1996).
//
// # Model
//
// The Logical Disk presents disk storage as logical blocks arranged
// into ordered lists. Clients allocate blocks within lists
// (NewBlock), write and read them (Write/Read), and de-allocate blocks
// and lists (DeleteBlock/DeleteList). Flush forces all committed state
// to stable storage.
//
// An atomic recovery unit brackets several of these operations between
// BeginARU and EndARU; after a failure either all or none of them are
// persistent. ARUs provide failure atomicity only: no isolation (each
// ARU sees its own shadow state, per the paper's third read-semantics
// option) and no durability (EndARU does not flush).
//
// Every block and list exists in up to n+2 versions for n active ARUs:
// one shadow version per ARU that touched it, one committed version,
// and one persistent version. Version lookup always searches shadow →
// committed → persistent. Allocation (NewBlock/NewList) is the single
// exception: identifiers are handed out in the committed state even
// inside an ARU, so concurrent ARUs can never allocate the same
// identifier; only the insertion into a list is shadowed.
//
// # Concurrency
//
// All exported methods are safe for concurrent use. The hot read-only
// operations — Read, ListBlocks, Lists, StatBlock and Stats — take no
// lock at all: every committed mutation publishes an immutable
// copy-on-write snapshot of the block-map, list-table and open-ARU
// set behind a single atomic epoch-head pointer, and a reader pins
// the current epoch with one atomic load plus a refcount increment
// (snapshot.go, DESIGN.md §16). Mutating operations serialize behind
// the engine write lock and swing the head at their completion point;
// a handful of inspection helpers (VerifyInternal, Segments,
// ActiveARUs, …) still take a shared read lock. As in the paper, the
// disk system performs no concurrency control between clients: two
// ARUs may update the same block and the commit order decides.
// Clients that need isolation must lock above the LD interface.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Re-exported identifier types; the on-disk format package owns them.
type (
	// BlockID names a logical disk block.
	BlockID = seg.BlockID
	// ListID names a logical block list.
	ListID = seg.ListID
	// ARUID names an atomic recovery unit.
	ARUID = seg.ARUID
)

// Nil identifiers.
const (
	NilBlock = seg.NilBlock
	NilList  = seg.NilList
)

// Variant selects which LLD build the engine behaves as, mirroring
// Table 1 of the paper.
type Variant int

const (
	// VariantNew is the paper's prototype: concurrent ARUs with
	// per-ARU shadow states and a list-operation log replayed at
	// commit.
	VariantNew Variant = iota
	// VariantOld is the original 1993 LLD: ARUs are sequential (at
	// most one open at a time) and operations inside an ARU execute
	// directly in the committed state — no shadow records, no
	// list-operation log, no commit-time replay. Recovery atomicity
	// still holds because summary entries are tagged with the ARU.
	VariantOld
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantNew:
		return "new"
	case VariantOld:
		return "old"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// CleanerPolicy selects how the segment cleaner picks victims.
type CleanerPolicy int

const (
	// CleanGreedy picks the segments with the fewest live blocks.
	CleanGreedy CleanerPolicy = iota
	// CleanCostBenefit weighs freed space against copying cost and
	// segment age, as in Sprite LFS.
	CleanCostBenefit
)

// Params configures an LLD instance. The zero value of optional fields
// selects documented defaults.
type Params struct {
	// Layout is the disk format geometry (required; see seg.Layout).
	Layout seg.Layout
	// Variant selects the concurrent-ARU prototype (default) or the
	// sequential-ARU baseline.
	Variant Variant
	// CheckpointEvery writes a table checkpoint after this many
	// segment writes (default 32; negative disables automatic
	// checkpoints).
	CheckpointEvery int
	// CkptCompactEvery bounds the incremental checkpoint chain: once
	// this many delta records sit on top of the base, the next
	// checkpoint compacts the chain into a fresh full base in the
	// other region (default 8; negative writes a full base every
	// time, i.e. disables incremental checkpoints). A chain whose
	// region runs out of room compacts early regardless.
	CkptCompactEvery int
	// RecoveryWorkers sizes the worker pool that reads and decodes
	// segment summaries during recovery (default min(GOMAXPROCS, 8);
	// 1 or negative scans serially). Replay application is always
	// ordered by segment sequence regardless of the pool size.
	RecoveryWorkers int
	// CleanerLowWater triggers cleaning when the number of reusable
	// segments drops below it (default 8).
	CleanerLowWater int
	// CleanerTargetFree is how many reusable segments cleaning tries
	// to reach (default 2×CleanerLowWater).
	CleanerTargetFree int
	// CleanerPolicy selects the victim policy (default CleanGreedy).
	CleanerPolicy CleanerPolicy
	// CacheBlocks is the read-cache capacity in blocks (default 1024;
	// negative disables the cache).
	CacheBlocks int
	// GrowthReserve refuses growth operations (Write, NewBlock,
	// NewList) with ErrNoSpace while fewer than this many reusable
	// segments remain beyond the open one (default 1; negative
	// disables). The reserve guarantees de-allocations can still log —
	// and therefore free space — on an otherwise full disk.
	GrowthReserve int
	// ReadSemantics selects which of the paper's three Read-visibility
	// options (§3.3) Read provides (default ReadOwnShadow, the
	// prototype's choice). It affects Read only; structure lookups
	// (ListBlocks, StatBlock) always resolve through the issuing
	// stream's own state.
	ReadSemantics ReadSemantics
	// AutoCheck disables the automatic post-recovery consistency
	// sweep (which frees blocks leaked by uncommitted ARUs) when set
	// to false via NoAutoCheck.
	NoAutoCheck bool
	// Tracer attaches an observability sink (event ring + latency
	// histograms; see aru/internal/obs). nil — the default — disables
	// all instrumentation: hot paths then pay a single nil-check. One
	// Tracer may be shared across instances (e.g. crash/recover
	// generations accumulate into the same histograms), and embedding
	// applications can subscribe to engine events by emitting their
	// own spans into the same Tracer.
	Tracer *obs.Tracer

	// CommitResolver decides the fate of in-doubt prepared ARUs found
	// during recovery (units whose KindPrepare record is durable but
	// whose commit/abort record is not): recovery calls it with the
	// prepare's coordinator transaction id and redoes the unit when it
	// returns true, erases it otherwise (presumed abort). nil presumes
	// abort for every in-doubt unit — correct for an unsharded engine,
	// which never prepares. internal/shard passes a resolver backed by
	// its coordinator log.
	CommitResolver func(txn uint64) bool

	// UnsafeNoSyncOnFlush makes Flush skip the device sync while
	// still reporting commits as durable. It exists solely so the
	// crash-state checker (internal/crashenum) can prove it detects
	// durability violations; never set it in production.
	UnsafeNoSyncOnFlush bool
	// UnsafeUntaggedReplay makes EndARU write the unit's replay
	// entries without their ARU tag, so recovery applies them
	// unconditionally instead of gating them on the commit record —
	// a deliberate atomicity bug for validating the crash checker.
	UnsafeUntaggedReplay bool
	// UnsafeAckBeforeSync makes the group-commit leader wake its batch
	// before the device sync runs — the classic broken-broker bug
	// (durability acknowledged on unsynced segments). It exists solely
	// so the crash-state checker can prove it detects the bug; never
	// set it in production. Serial flushes (NoGroupCommit) are not
	// affected.
	UnsafeAckBeforeSync bool
	// UnsafeStaleHeadEvery, when n > 0, silently drops every n-th
	// epoch publish, so lock-free readers keep being served the
	// previous (stale) snapshot past the operation's completion. It
	// exists solely so the linearizability checker
	// (internal/linearize) can prove it detects stale-read bugs;
	// never set it in production.
	UnsafeStaleHeadEvery int
	// UnsafeTornDeltaPublish makes the checkpoint writer skip the
	// publish barrier: the chain record is written but the checkpoint
	// watermark (which unlocks segment reuse) advances without
	// waiting for the record to be durable. A crash can then lose the
	// record after a replay-window segment was already rewritten —
	// the torn-delta bug the crash-state checker's `-inject
	// torn-delta` knob must catch. Never set it in production.
	UnsafeTornDeltaPublish bool
	// UnsafeSkipDataCRC makes recovery trust the summary tail of a
	// two-extent segment without checking its data extent against the
	// trailer's data CRC, so a tail that landed while its data write
	// was dropped or torn replays entries naming stale blocks — the
	// split-tail bug the crash-state checker's `-inject split-tail`
	// knob must catch. Never set it in production.
	UnsafeSkipDataCRC bool
	// RecoveryProbe is test instrumentation: Open invokes it once per
	// mount, after the crash image's tables are rebuilt but before the
	// first epoch publish. The crash-state checker uses it to assert
	// that reads during replay fail cleanly (the snapshot head does
	// not exist yet, so AcquireSnapshot must return ErrClosed). The
	// probe may only call AcquireSnapshot/OpenSnapshots — the engine
	// is mid-construction and nothing else is safe to touch.
	RecoveryProbe func(d *LLD)

	// NoGroupCommit disables the group-commit broker: Flush reverts to
	// the serial path that holds the engine lock across the device
	// write and sync. Used as the baseline in benchmarks and available
	// as an escape hatch.
	NoGroupCommit bool
}

func (p Params) withDefaults() Params {
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = 32
	}
	if p.CkptCompactEvery == 0 {
		p.CkptCompactEvery = 8
	}
	if p.RecoveryWorkers == 0 {
		p.RecoveryWorkers = runtime.GOMAXPROCS(0)
		if p.RecoveryWorkers > 8 {
			p.RecoveryWorkers = 8
		}
	}
	if p.CleanerLowWater == 0 {
		p.CleanerLowWater = 8
	}
	if p.CleanerTargetFree == 0 {
		p.CleanerTargetFree = 2 * p.CleanerLowWater
	}
	if p.CacheBlocks == 0 {
		p.CacheBlocks = 1024
	}
	if p.GrowthReserve == 0 {
		p.GrowthReserve = 1
	}
	return p
}

// Errors returned by the LD interface.
var (
	// ErrNoSuchBlock reports an operation on an unallocated block.
	ErrNoSuchBlock = errors.New("lld: no such block")
	// ErrNoSuchList reports an operation on an unallocated list.
	ErrNoSuchList = errors.New("lld: no such list")
	// ErrNoSuchARU reports an operation naming an unknown or already
	// ended ARU.
	ErrNoSuchARU = errors.New("lld: no such ARU")
	// ErrARUActive reports a second BeginARU on the sequential-ARU
	// variant while one is already open.
	ErrARUActive = errors.New("lld: an ARU is already active (sequential variant)")
	// ErrNotMember reports a list operation whose block is not a
	// member of the named list (in the operating view).
	ErrNotMember = errors.New("lld: block is not a member of the list")
	// ErrNoSpace reports that the log is out of reusable segments and
	// cleaning could not free any.
	ErrNoSpace = errors.New("lld: out of disk space")
	// ErrAbortUnsupported reports AbortARU on the sequential variant,
	// which applies operations in place and cannot roll back.
	ErrAbortUnsupported = errors.New("lld: AbortARU is not supported by the sequential variant")
	// ErrARUPrepared reports an operation on an ARU frozen by
	// PrepareARU: a prepared unit accepts only CommitPrepared or
	// AbortARU (two-phase commit, internal/shard).
	ErrARUPrepared = errors.New("lld: ARU is prepared")
	// ErrPrepareUnsupported reports PrepareARU on the sequential
	// variant, which cannot freeze a unit (its operations already ran
	// in the committed state).
	ErrPrepareUnsupported = errors.New("lld: PrepareARU is not supported by the sequential variant")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("lld: closed")
	// ErrBadParam reports invalid arguments.
	ErrBadParam = errors.New("lld: bad parameter")
)

// Stats holds operation counters for one LLD instance.
type Stats struct {
	Reads, Writes              int64 // block reads / writes
	CoalescedWrites            int64 // writes absorbed in place in the open segment
	NewBlocks, DeleteBlocks    int64
	NewLists, DeleteLists      int64
	ARUsBegun, ARUsCommitted   int64
	ARUsAborted                int64
	ARUsPrepared               int64 // PrepareARU calls (2PC participants)
	SegmentsWritten            int64 // segments written to disk
	SegmentsCleaned            int64 // segments reclaimed by the cleaner
	BlocksRelocated            int64 // live blocks copied by the cleaner
	Checkpoints                int64
	CkptDeltas                 int64 // checkpoints written as incremental deltas
	MergeFallbacks             int64 // commit-replay inserts whose predecessor vanished
	LeakedBlocksFreed          int64 // blocks freed by the consistency sweep
	ShadowRecords, AltRecords  int64 // current alternative-record counts (shadow / all)
	ShadowCreated              int64 // shadow records ever created
	CommittedCreated           int64 // committed alternative records ever created
	RecordsPromoted            int64 // committed→persistent transitions
	BlocksMaterialized         int64 // buffered versions written into segments at seal
	PrevVersionsEmitted        int64 // stashed pre-unit versions written at seal
	ListOpsReplayed            int64 // list-operation log records re-executed at commit
	MovesExecuted              int64 // MoveBlock operations
	CacheHits, CacheMisses     int64
	PredecessorSearchSteps     int64 // total steps of predecessor searches
	EntriesLogged              int64 // summary entries appended
	RecoveredEntries           int64 // summary entries replayed at recovery
	RecoveredARUs, DroppedARUs int64 // committed / discarded ARUs at recovery
	Flushes                    int64 // Flush calls (durability requests)
	CommitBatches              int64 // group-commit batches that wrote segments
	BatchedCommits             int64 // commit records made durable via batches
	EpochsPublished            int64 // MVCC epochs published (head swings)
	SnapshotsPurged            int64 // retired epochs drained and recycled
	PurgeRetries               int64 // purge sweeps stopped by a pinned epoch
	SnapshotAge                int64 // current − oldest live epoch (gauge)
}

// LLD is a log-structured logical disk with atomic recovery units.
// Create instances with Format (fresh disk) or Open (recovery).
type LLD struct {
	params Params
	dev    disk.Disk

	// obs is the observability sink from Params.Tracer (nil =
	// disabled). Immutable after construction, so it may be read
	// without holding mu; the Tracer itself is internally lock-free.
	obs *obs.Tracer

	// commitStamps records, for each commit record queued by EndARU,
	// when it was queued; the stamps are drained into the
	// EndARU-to-durable histogram by the next successful device sync.
	// Guarded by mu; only populated when obs is non-nil.
	commitStamps []commitStamp

	// mu guards all engine state below. Mutating operations take the
	// write lock; read-only operations (Read, ListBlocks, Lists,
	// StatBlock, Stats, Segments, …) take the read lock and therefore
	// run in parallel with each other. Under the read lock the only
	// things a reader may touch that are not immutable-while-shared are
	// the atomic stats counters and the internally locked block cache.
	// See DESIGN.md, "Concurrency".
	mu sync.RWMutex
	// Everything below is guarded by mu.
	closed bool
	stats  lldStats

	ts      uint64 // logical clock: timestamp of the next operation
	nextBlk BlockID
	nextLst ListID
	nextARU ARUID

	// Persistent state (the paper's block-number-map and list-table),
	// plus the roots of the per-identifier alternative-record chains.
	blocks map[BlockID]*blockEntry
	lists  map[ListID]*listEntry

	// Committed state: the single merged stream's alternative records.
	commBlocks *altBlock // same-state chain, unordered
	commLists  *altList

	// Active ARUs (shadow states).
	arus map[ARUID]*aruState

	// Log state.
	builder *seg.Builder
	// commBufBlocks counts committed-state versions whose contents are
	// still in memory; they materialize into the open segment at seal
	// time and therefore reserve capacity in it.
	commBufBlocks int
	// pendingCommits holds the commit records of ended ARUs, in commit
	// order. They are emitted at seal time, after all buffered data
	// has materialized, so a unit's data and its commit record always
	// land in the same (atomic) segment: commits within one open-
	// segment window persist as a group, which is exactly the
	// granularity at which anything persists.
	pendingCommits []seg.Entry
	curSeg         int    // segment index the builder will be written to
	nextSeq        uint64 // seq for the next sealed segment
	durableTS      uint64 // all entries with TS <= durableTS are on disk
	ckptSeq        uint64 // FlushedSeq of the newest durable checkpoint
	ckptTS         uint64 // CkptTS of the newest durable checkpoint
	segsSinceC     int    // segments written since the last checkpoint

	// Incremental checkpoint chain state (DESIGN.md §15). The current
	// chain (one base + ckptDepth deltas) lives in region ckptRegion;
	// the next delta appends at ckptChainOff. Compaction writes a
	// fresh base into the other region and flips ckptRegion.
	ckptRegion    int
	ckptChainOff  int64
	ckptDepth     int
	ckptForceBase bool // mounted a legacy v1 region: next checkpoint must start a v2 chain
	// dirtyBlocks and dirtyLists name the identifiers whose persistent
	// records changed (or were deleted) since the last checkpoint —
	// exactly the upserts/deletions the next delta record carries.
	// Marked at every persistent-state mutation (promoteBlock,
	// promoteList, recovery replay).
	dirtyBlocks map[BlockID]struct{}
	dirtyLists  map[ListID]struct{}

	// Per-segment accounting.
	segSeq    []uint64 // trailer seq per segment (0 = never written)
	segLive   []int32  // live persistent blocks per segment
	segPins   []int32  // alternative records holding data in the segment
	freeCache int      // reusable-segment count, refreshed at seals
	inClean   bool     // reentrancy guard for the cleaner
	cache     *blockCache

	// Group commit (DESIGN.md §11). gc has its own internal mutex and
	// is the only field here touched without d.mu; everything else
	// below is guarded by d.mu like the rest of the struct.
	gc commitBroker
	// sealed queues segments sealed by batch leaders whose device
	// write/sync is pending, in seal (seq) order; sealedBySeg indexes
	// the same entries by segment index for the read path.
	sealed      []*sealedSeg
	sealedBySeg map[uint32]*sealedSeg
	// spareBuilders pools retired segment builders for double
	// buffering: a seal hands its builder to the sealed entry and
	// continues on a spare.
	spareBuilders []*seg.Builder
	// devDirty records that the device has unsynced writes (set by
	// segment/data writes, cleared by a covering sync); wgen
	// increments with every device write so a leader only clears
	// devDirty if no write raced its sync.
	devDirty bool
	wgen     uint64
	// Batch/sync causality counters (DESIGN.md §13): batchSeq numbers
	// completed group-commit batches, syncSeq numbers successful device
	// syncs (both paths — every durable ack names its sync). Guarded by
	// mu; lastBatch mirrors the newest completed batch id atomically so
	// lock-free readers (the server's slow-op log) can attribute work.
	batchSeq  uint64
	syncSeq   uint64
	lastBatch atomic.Uint64
	// reuseQuarantine refcounts segments whose live count went to zero
	// through a broker seal's promotion: they must not be rewritten
	// until that seal's batch has synced (see sealBatchLocked).
	reuseQuarantine map[int]int
	// sealFrees, when non-nil, collects the segment indexes promote()
	// frees — set only around the promotion inside sealBatchLocked.
	sealFrees *[]int

	// Free lists for steady-state churn (see pool.go for the ownership
	// rules). All guarded by d.mu; gcWork is touched only by the single
	// in-flight batch leader, which extends its use across the device
	// I/O it performs with d.mu released.
	freeBlocks  *altBlock // chained via nextState
	freeLists   *altList
	nFreeBlocks int
	nFreeLists  int
	freeBufs    [][]byte
	freeStates  []*aruState
	spareSeals  []*sealedSeg
	matScratch  []matItem
	matSort     matSorter
	gcWork      []*sealedSeg

	// abortAllocs holds the blocks aborted units inserted (their own
	// allocations among them), for the leak sweep maybeMaintain runs
	// once no unit is open.
	abortAllocs []BlockID

	// MVCC epoch state (snapshot.go, DESIGN.md §16). head is the only
	// field lock-free readers load; everything else is guarded by mu
	// except the atomics noted.
	head        atomic.Pointer[snapshot]
	devSh       sharedReader // dev's lock-free read interface, if any
	snapOldest  *snapshot    // oldest retired-but-undrained epoch
	epoch       uint64       // epoch number of the current head
	oldestEpoch atomic.Uint64
	invalid     atomic.Bool // set by Invalidate (crash simulation)
	openSnaps   atomic.Int64
	// Dirty sets: entries touched since the last publish, whose trie
	// leaves the next publish rebuilds. arusDirty covers the (small)
	// open-ARU table wholesale.
	dirtyB    []BlockID
	dirtyL    []ListID
	arusDirty bool
	// Roots of the persistent tries the NEXT publish will expose;
	// between publishes they may run ahead of head's roots.
	blocksRoot *pnode
	listsRoot  *pnode
	arusRoot   *pnode
	// ret accumulates everything the current window unshared; it is
	// attached to the outgoing epoch at publish.
	ret       *retireSet
	spareRets []*retireSet
	// segFreeEpoch[s] is the epoch that must drain before segment s
	// may be rewritten: stamped d.epoch+1 whenever a reference into s
	// is dropped, because snapshots up to the next publish may still
	// read s's old bytes (see segReusable).
	segFreeEpoch []uint64
	pubSkip      int  // UnsafeStaleHeadEvery counter
	pubSafe      bool // mid-maintenance publishes allowed (op-consistent)
	// Snapshot-machinery pools (drained-epoch recycling).
	freeNodes  []*pnode
	freeSnaps  []*snapshot
	freeBSnaps []*blockSnap
	freeLSnaps []*listSnap
}
