// Package rma implements the Rewired Memory Array (RMA) of De Leo and
// Boncz, "Packed Memory Arrays – Rewired" (ICDE 2019): a sorted sparse
// array of 8-byte key/value pairs that keeps its elements physically
// sequential under updates.
//
// A packed memory array stores sorted elements interleaved with gaps so
// that inserts and deletes happen in place, at amortized O(log² N) moved
// elements per update — while range scans remain truly sequential,
// approaching dense column-scan speed. The RMA makes that practical with
// five features the paper contributes or adopts:
//
//   - fixed-size segments tuned like (a,b)-tree leaves (capacity B);
//   - clustering: segment contents pack toward alternating segment ends,
//     so each segment pair exposes one contiguous run and scans pay no
//     per-slot gap checks;
//   - a static, pointer-free index routing keys to segments — upgraded
//     here to a branchless Eytzinger-layout descent;
//   - memory rewiring: rebalances write each element once into spare
//     pages and swap virtual page-table entries instead of copying twice;
//   - adaptive rebalancing: a Detector recognizes skewed ("hammered")
//     update patterns and concentrates gaps where the next inserts will
//     land.
//
// Keys form a multiset: duplicates are allowed, Delete removes one
// occurrence. An Array is not safe for concurrent use; for concurrent
// serving, NewSharded partitions the key space across independent
// arrays behind per-shard locks (see Sharded and CONCURRENCY.md).
//
// # Quick start
//
//	a, err := rma.New()
//	if err != nil { ... }
//	a.Insert(42, 420)
//	v, ok := a.Find(42)
//	count, sum := a.Sum(0, 100)      // sequential range aggregation
//	for k, v := range a.Range(0, 100) { fmt.Println(k, v) }
//
// # Iteration
//
// Four lazy range-over-func forms — All, Ascend(lo), Descend(hi) and
// Range(lo, hi) — iterate in key order without materializing anything:
// a segment-hopping walker borrows each segment's dense run straight
// from the page space, so a traversal holds O(1) state regardless of
// range size. NewCursor exposes the same walker pull-style (Next/Key/
// Value, SeekGE repositioning via the static index) for merge joins and
// pagination. Iterators and cursors are snapshot-free: mutating the
// array invalidates them.
//
// # Batched lookups
//
// GetBatch resolves many point lookups in one call: the probe set is
// sorted once (an allocation-free radix sort) and adjacent probes share
// index descents through last-segment memoization and a galloping
// separator advance, so a batch beats the equivalent loop of Find calls
// on sorted and random probe sets alike. Every backend implements it;
// the Sharded form groups probes per shard first and locks each shard
// exactly once.
//
// # Navigation and order statistics
//
// Floor, Ceiling, Rank, Select and CountRange complete the ordered-map
// surface. Rank-based queries run in O(log n): the array maintains a
// Fenwick tree over its per-segment cardinalities — updated on every
// insert, delete, rebalance and resize — so a rank is one prefix sum
// plus one in-segment binary search, and Select is one Fenwick descent.
//
// # Backends
//
// The OrderedMap and UpdatableMap interfaces cover this entire surface,
// and every comparison structure of the paper's evaluation implements
// them: ABTree (tuned (a,b)-tree), ARTTree (ART-indexed tree), Dense
// (sorted column) and StaticIndexed (sorted column routed by the
// pointer-free static index) — as does the concurrent Sharded serving
// layer. Benchmarks, examples and tests drive any backend
// interchangeably through the interface.
package rma

import (
	"rma/internal/calibrator"
	"rma/internal/core"
	"rma/internal/vmem"
)

// Array is a Rewired Memory Array. Create one with New.
type Array struct {
	a *core.Array
}

// options collects everything the constructors accept: the engine
// configuration plus facade-level settings that have no core
// counterpart (the background rebalancer only exists at the sharded
// serving layer).
type options struct {
	cfg core.Config
	// rebalWorkers is the background-rebalancer worker count for
	// NewSharded/NewShardedFromSample: 0 keeps rebalancing synchronous,
	// < 0 means one worker per available CPU. Ignored by New.
	rebalWorkers int
	// durDir, when non-empty, roots the durability tree the structure
	// checkpoints into (WithDurability).
	durDir string
	// wal, when non-nil, composes a write-ahead log with the durability
	// tree (WithWAL). Ignored by New.
	wal *WALConfig
}

func defaultOptions() options {
	return options{cfg: core.DefaultConfig()}
}

// Option configures New, NewSharded and NewShardedFromSample.
type Option func(*options)

// WithSegmentCapacity sets the segment size B in elements (power of two,
// >= 4; default 128, the paper's default). Larger segments favour scans,
// smaller ones favour updates, exactly like (a,b)-tree leaves.
func WithSegmentCapacity(b int) Option {
	return func(o *options) { o.cfg.SegmentSlots = b }
}

// WithScanOrientedThresholds selects the scan-oriented thresholds
// (rho1=0, rhoH=tauH=0.75, tau1=1, proportional resizes, forced shrink
// below 50% fill): ~20% slower updates, denser array, faster scans and a
// smaller footprint (Section III of the paper). The default is the
// update-oriented set (rho1=0.08, rhoH=0.3, tauH=0.75, tau1=1, doubling
// resizes).
func WithScanOrientedThresholds() Option {
	return func(o *options) { o.cfg.Thresholds = calibrator.ScanOriented() }
}

// WithPageCapacity sets the rewiring page size in slots (power of two,
// >= 2*B; default 2048 slots = 16 KB per page and array). Smaller pages
// rewire more often; larger pages amortize swaps over more data.
func WithPageCapacity(slots int) Option {
	return func(o *options) { o.cfg.PageSlots = slots }
}

// WithBackgroundRebalancing enables the asynchronous per-shard
// rebalancer of the sharded serving layer (NewSharded and
// NewShardedFromSample; New ignores it — a sequential Array has no
// maintenance goroutines). workers sets the maintenance pool size: 0
// disables (the default, synchronous rebalancing), < 0 sizes the pool
// to one worker per available CPU.
//
// With the rebalancer on, an insert that overflows its window does only
// the minimal local make-room needed to complete and defers the policy
// rebalance (or resize) to the pool, shrinking the writer's tail
// latency; iterators, scans and ApplyBatch still observe fully
// rebalanced shards (flush-on-snapshot). Call Close on the Sharded map
// to drain and stop the pool. See CONCURRENCY.md for the full deferred
// work contract.
func WithBackgroundRebalancing(workers int) Option {
	return func(o *options) { o.rebalWorkers = workers }
}

// WithLockFreeReads does nothing: optimistic seqlock reads are the
// Sharded map's only read route (see CONCURRENCY.md, "The read
// contract").
//
// Deprecated: always on. Kept only until the benchmark (bench/run.go)
// stops passing it.
func WithLockFreeReads() Option { return func(*options) {} }

// New builds an empty Rewired Memory Array.
func New(opts ...Option) (*Array, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	a, err := core.New(o.cfg)
	if err != nil {
		return nil, err
	}
	if o.durDir != "" {
		reg, err := vmem.CreateFileRegion(o.durDir, o.cfg.PageSlots)
		if err != nil {
			return nil, err
		}
		if err := a.AttachDurability(reg); err != nil {
			reg.Close()
			return nil, err
		}
	}
	return &Array{a: a}, nil
}

// NewTPMA builds a traditional PMA (the Fig 1a baseline: interleaved
// layout, log-sized segments, dynamic side index, two-pass rebalances,
// even rebalancing). It shares the full ordered-map surface, so the
// harness and applications can compare it against the RMA through the
// same interface.
func NewTPMA() (*Array, error) {
	a, err := core.New(core.BaselineConfig())
	if err != nil {
		return nil, err
	}
	return &Array{a: a}, nil
}

// Insert adds a key/value pair. The error is non-nil only when the
// storage substrate fails to allocate; the array remains consistent.
func (r *Array) Insert(key, val int64) error { return r.a.Insert(key, val) }

// Delete removes one occurrence of key, reporting whether it existed.
func (r *Array) Delete(key int64) (bool, error) { return r.a.Delete(key) }

// Find returns a value stored under key.
func (r *Array) Find(key int64) (int64, bool) { return r.a.Find(key) }

// Lookup is one GetBatch result: the value found under the probed key
// and whether the key was present.
type Lookup = core.Lookup

// GetBatch resolves a batch of point lookups at once: out is grown to
// len(keys) (reused when its capacity suffices) and out[i] answers
// keys[i]. The batch sorts its probe set once and amortizes index
// descents across adjacent keys, so it beats len(keys) individual Find
// calls on both sorted and random probe sets; steady-state calls are
// allocation-free.
func (r *Array) GetBatch(keys []int64, out []Lookup) []Lookup { return r.a.FindBatch(keys, out) }

// Contains reports whether key is stored.
func (r *Array) Contains(key int64) bool { return r.a.Contains(key) }

// Min returns the smallest stored key.
func (r *Array) Min() (int64, bool) { return r.a.Min() }

// Max returns the largest stored key.
func (r *Array) Max() (int64, bool) { return r.a.Max() }

// ScanRange visits every element with lo <= key <= hi in key order; the
// scan runs one tight loop per segment pair over dense runs.
func (r *Array) ScanRange(lo, hi int64, yield func(key, val int64) bool) {
	r.a.ScanRange(lo, hi, yield)
}

// Scan visits every element in key order.
func (r *Array) Scan(yield func(key, val int64) bool) { r.a.Scan(yield) }

// Sum aggregates elements with lo <= key <= hi, returning their count
// and the sum of their values — the paper's range-scan measurement.
func (r *Array) Sum(lo, hi int64) (count int, sum int64) { return r.a.Sum(lo, hi) }

// SumAll aggregates every element (full column scan).
func (r *Array) SumAll() (count int, sum int64) { return r.a.SumAll() }

// BulkLoad inserts a batch with the paper's bottom-up bulk-loading
// algorithm, rebalancing each touched window at most once.
func (r *Array) BulkLoad(keys, vals []int64) error {
	return r.a.BulkLoad(core.Batch{Keys: keys, Vals: vals})
}

// BulkUpdate applies deletions then insertions as one batch: the
// streaming pattern where the cardinality stays constant.
func (r *Array) BulkUpdate(insertKeys, insertVals []int64, deleteKeys []int64) error {
	return r.a.BulkUpdate(core.Batch{Keys: insertKeys, Vals: insertVals}, deleteKeys)
}

// Size returns the number of stored elements.
func (r *Array) Size() int { return r.a.Size() }

// Capacity returns the number of slots (stored elements + gaps).
func (r *Array) Capacity() int { return r.a.Capacity() }

// SegmentCapacity returns the segment size B.
func (r *Array) SegmentCapacity() int { return r.a.SegmentSlots() }

// Density returns the fill factor Size/Capacity.
func (r *Array) Density() float64 { return r.a.Density() }

// FootprintBytes returns the physical memory held by the array,
// including spare rewiring pages, the index and the detector.
func (r *Array) FootprintBytes() int64 { return r.a.FootprintBytes() }

// Stats is a snapshot of a structure's operation counters; see
// core.Stats for what each field counts.
type Stats = core.Stats

// Stats returns the operation counters accumulated so far.
func (r *Array) Stats() Stats { return r.a.Stats() }

// Validate checks every structural invariant; it is O(n) and meant for
// tests and debugging.
func (r *Array) Validate() error { return r.a.Validate() }
