package rma

import (
	"fmt"
	"iter"
	"runtime"

	"rma/internal/rebal"
	"rma/internal/shard"
	"rma/internal/wal"
)

// Sharded is the concurrent serving layer: an ordered map that
// partitions the key space across K independent Rewired Memory Arrays,
// each guarded by its own lock. Shard boundaries are fixed at
// construction, so routing is a lock-free binary search and keys never
// migrate between shards; every engine-level operation — rebalances,
// rewiring, resizes — stays confined to one shard's page space.
//
// All methods are safe for concurrent use. Single-shard point
// operations (Insert, Delete, Find, Contains) are linearizable; every
// operation that may visit several shards — iterators, Min/Max,
// Floor/Ceiling, Rank, Select, CountRange, Sum, Size, ApplyBatch — is
// atomic per shard but not across shards — see CONCURRENCY.md for the
// exact contract. Iterator and scan callbacks run holding the current
// shard's lock and must not call back into the same Sharded map.
//
// Point reads (Find, Contains, Floor, Ceiling, GetBatch) take no lock:
// they probe the shard optimistically under a seqlock and fall back to
// the shard lock only after a bounded number of lost races with
// writers. Cross-shard reads (iterators, ScanRange, Rank) validate a
// per-shard version vector and retry until they observe one consistent
// cut where they can; SnapshotScan reports the verdict. The counters
// are in Stats (LockFreeReads, ReadRetries, ReadFallbacks,
// EpochAdvances, SnapshotBreaks).
//
// With WithBackgroundRebalancing, a maintenance pool
// (internal/rebal) executes deferred window rebalances and resizes off
// the write path; call Close to drain it when done. Without the option,
// Close is a no-op and the map needs no lifecycle management.
type Sharded struct {
	m *shard.Map
	// pool is the background maintenance pool; nil when background
	// rebalancing is off.
	pool *rebal.Pool
}

// BatchOp is one operation of an ApplyBatch batch.
type BatchOp = shard.Op

// Batch operation kinds.
const (
	// OpPut inserts Key/Val (multiset semantics, like Insert).
	OpPut = shard.OpPut
	// OpDelete removes one occurrence of Key (Val is ignored).
	OpDelete = shard.OpDelete
)

// NewSharded builds a Sharded map with the given number of shards,
// splitting the full int64 key domain evenly. Every shard is a fresh
// RMA built from the same options New accepts. Use NewShardedFromSample
// when the key distribution is known — uniform boundaries concentrate a
// skewed workload onto few shards.
func NewSharded(shards int, opts ...Option) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("rma: NewSharded needs at least 1 shard, got %d", shards)
	}
	return newSharded(shard.UniformSeps(shards), opts)
}

// NewShardedFromSample builds a Sharded map whose shard boundaries sit
// at the quantiles of sample, so each shard receives roughly the same
// share of a workload distributed like the sample.
func NewShardedFromSample(shards int, sample []int64, opts ...Option) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("rma: NewShardedFromSample needs at least 1 shard, got %d", shards)
	}
	return newSharded(shard.QuantileSeps(shards, sample), opts)
}

func newSharded(seps []int64, opts []Option) (*Sharded, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	// The WAL config is checked before anything touches the disk, so a
	// bad one leaves no directory tree behind.
	var wo wal.Options
	if o.wal != nil {
		if o.durDir == "" {
			return nil, fmt.Errorf("rma: WithWAL requires WithDurability")
		}
		var err error
		if wo, err = o.wal.walOptions(); err != nil {
			return nil, err
		}
	}
	m, err := shard.New(o.cfg, seps)
	if err != nil {
		return nil, err
	}
	if o.durDir != "" {
		if err := m.EnableDurability(o.durDir); err != nil {
			return nil, err
		}
	}
	if o.wal != nil {
		if err := m.EnableWAL(walDirFor(o.durDir), wo, o.wal.policy()); err != nil {
			m.CloseDurability()
			return nil, err
		}
	}
	return finishSharded(m, o), nil
}

// finishSharded wraps a constructed (or recovered) shard.Map in the
// facade, wiring the maintenance pool when requested. Durability must
// already be attached — the pool's workers fold shard checkpoints into
// their sweeps, so the map must be fully durable before Start.
func finishSharded(m *shard.Map, o options) *Sharded {
	s := &Sharded{m: m}
	if o.rebalWorkers != 0 {
		workers := o.rebalWorkers
		if workers < 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		s.pool = rebal.NewPool(m, workers)
		if o.wal != nil && o.wal.SchedulerPeriod > 0 {
			s.pool.SetSchedulerPeriod(o.wal.SchedulerPeriod)
		}
		// Order matters: deferred mode (and the notify hook) must be in
		// place before the map is shared, and the pool must be running
		// before the first write can defer work.
		m.EnableDeferredRebalancing(s.pool.Notify)
		s.pool.Start()
	}
	return s
}

// Close stops the background rebalancer, draining every deferred window
// first, returns the shards to synchronous rebalancing, and releases
// the durability files (WithDurability). It does not checkpoint: state
// since the last Checkpoint call is not persisted. The map stays usable
// from memory afterwards but can no longer checkpoint. Idempotent and a
// no-op when neither feature was enabled. Do not call it concurrently
// with writers that must observe the asynchronous contract; writes that
// race a Close are still applied correctly, merely rebalanced
// synchronously.
func (s *Sharded) Close() error {
	var err error
	if s.pool != nil {
		err = s.pool.Close()
		if derr := s.m.DisableDeferredRebalancing(); err == nil {
			err = derr
		}
	}
	if werr := s.m.CloseWAL(); err == nil {
		err = werr
	}
	if cerr := s.m.CloseDurability(); err == nil {
		err = cerr
	}
	return err
}

// Flush synchronously drains all deferred rebalance work, so subsequent
// reads pay no flush-on-snapshot catch-up. A no-op when background
// rebalancing is off or the backlog is empty.
func (s *Sharded) Flush() error { return s.m.FlushAll() }

// PendingWindows returns the number of deferred rebalance windows
// currently queued across shards (0 without background rebalancing) —
// a load diagnostic for the maintenance pool.
func (s *Sharded) PendingWindows() int { return s.m.PendingWindows() }

// NumShards returns the number of shards K.
func (s *Sharded) NumShards() int { return s.m.NumShards() }

// Boundaries returns a copy of the K-1 shard separator keys.
func (s *Sharded) Boundaries() []int64 { return s.m.Boundaries() }

// ShardSizes returns the per-shard element counts (load diagnostics).
func (s *Sharded) ShardSizes() []int { return s.m.ShardSizes() }

// Insert adds a key/value pair to the owning shard.
func (s *Sharded) Insert(key, val int64) error { return s.m.Insert(key, val) }

// Delete removes one occurrence of key, reporting whether it existed.
func (s *Sharded) Delete(key int64) (bool, error) { return s.m.Delete(key) }

// ApplyBatch applies a batch of puts and deletes, grouping operations
// per shard so each shard is locked once and long insertion runs ride
// the bulk-load path. It returns how many deletions found their key.
// Operations on the same key keep their relative order; the batch is
// atomic per shard, not across shards.
func (s *Sharded) ApplyBatch(ops []BatchOp) (deleted int, err error) {
	return s.m.ApplyBatch(ops)
}

// Find returns a value stored under key.
func (s *Sharded) Find(key int64) (int64, bool) { return s.m.Find(key) }

// GetBatch resolves a batch of point lookups: out is grown to
// len(keys) (reused when its capacity suffices) and out[i] answers
// keys[i]. Probes are grouped per shard in one counting-sort pass, so
// each shard is visited exactly once and answers its whole group from
// one state. Like every multi-shard operation the batch is consistent
// per shard, not across shards.
func (s *Sharded) GetBatch(keys []int64, out []Lookup) []Lookup { return s.m.GetBatch(keys, out) }

// Contains reports whether key is stored.
func (s *Sharded) Contains(key int64) bool { return s.m.Contains(key) }

// Min returns the smallest stored key.
func (s *Sharded) Min() (int64, bool) { return s.m.Min() }

// Max returns the largest stored key.
func (s *Sharded) Max() (int64, bool) { return s.m.Max() }

// Floor returns the greatest stored element with key <= x.
func (s *Sharded) Floor(x int64) (key, val int64, ok bool) { return s.m.Floor(x) }

// Ceiling returns the smallest stored element with key >= x.
func (s *Sharded) Ceiling(x int64) (key, val int64, ok bool) { return s.m.Ceiling(x) }

// Rank returns the number of stored elements with key < x.
func (s *Sharded) Rank(x int64) int { return s.m.Rank(x) }

// Select returns the i-th smallest element (0-based).
func (s *Sharded) Select(i int) (key, val int64, ok bool) { return s.m.Select(i) }

// CountRange returns the number of elements with lo <= key <= hi.
func (s *Sharded) CountRange(lo, hi int64) int { return s.m.CountRange(lo, hi) }

// All returns a lazy ascending iterator over every element, merged
// across shards (shards own disjoint key ranges, so the merge is a
// concatenation — no heap, one shard lock at a time).
func (s *Sharded) All() iter.Seq2[int64, int64] { return s.m.IterAscend(minInt64, maxInt64) }

// Ascend returns a lazy ascending iterator over elements with key >= lo.
func (s *Sharded) Ascend(lo int64) iter.Seq2[int64, int64] { return s.m.IterAscend(lo, maxInt64) }

// Descend returns a lazy descending iterator over elements with
// key <= hi.
func (s *Sharded) Descend(hi int64) iter.Seq2[int64, int64] { return s.m.IterDescend(minInt64, hi) }

// Range returns a lazy ascending iterator over lo <= key <= hi.
func (s *Sharded) Range(lo, hi int64) iter.Seq2[int64, int64] { return s.m.IterAscend(lo, hi) }

// ScanRange visits every element with lo <= key <= hi in key order.
func (s *Sharded) ScanRange(lo, hi int64, yield func(key, val int64) bool) {
	s.m.ScanRange(lo, hi, yield)
}

// Scan visits every element in key order.
func (s *Sharded) Scan(yield func(key, val int64) bool) { s.m.Scan(yield) }

// SnapshotScan visits every element with lo <= key <= hi in key order
// and reports whether the whole traversal observed one consistent cut —
// an instant at which every visited shard simultaneously held exactly
// the state the callback saw. On a broken cut the scan completes with
// per-shard semantics and returns false — callers needing a true
// snapshot retry.
func (s *Sharded) SnapshotScan(lo, hi int64, yield func(key, val int64) bool) bool {
	return s.m.SnapshotScanRange(lo, hi, yield)
}

// Sum aggregates elements with lo <= key <= hi, returning their count
// and the sum of their values.
func (s *Sharded) Sum(lo, hi int64) (count int, sum int64) { return s.m.Sum(lo, hi) }

// SumAll aggregates every element.
func (s *Sharded) SumAll() (count int, sum int64) { return s.m.SumAll() }

// Size returns the total number of stored elements.
func (s *Sharded) Size() int { return s.m.Size() }

// FootprintBytes returns the physical memory held by all shards.
func (s *Sharded) FootprintBytes() int64 { return s.m.FootprintBytes() }

// Stats returns the operation counters summed across shards.
func (s *Sharded) Stats() Stats { return s.m.Stats() }

// ServeStats is the serving-layer snapshot: the operation counters
// plus the load diagnostics a front end reports in one call —
// cardinality, shard fan-out, deferred-maintenance backlog and
// physical footprint. rmaserve's STATS command emits it.
type ServeStats struct {
	Stats
	// Size is the stored element count (per-shard consistent, like
	// every multi-shard read).
	Size int
	// Shards is the shard fan-out K.
	Shards int
	// PendingWindows is the deferred rebalance backlog across shards (0
	// without WithBackgroundRebalancing).
	PendingWindows int
	// FootprintBytes is the physical memory held by all shards.
	FootprintBytes int64
	// CheckpointRounds and CheckpointLSN identify the last published
	// recovery point: rounds published since this process started and
	// the WAL LSN the latest covers (both 0 without WithDurability /
	// WithWAL) — the LASTSAVE surface.
	CheckpointRounds uint64
	CheckpointLSN    uint64
}

// ServeStats returns the serving snapshot. It takes each shard's lock
// once per aggregated surface; under heavy traffic call it at reporting
// cadence, not per request.
func (s *Sharded) ServeStats() ServeStats {
	rounds, lsn := s.m.LastCheckpoint()
	return ServeStats{
		Stats:            s.Stats(),
		Size:             s.Size(),
		Shards:           s.NumShards(),
		PendingWindows:   s.PendingWindows(),
		FootprintBytes:   s.FootprintBytes(),
		CheckpointRounds: rounds,
		CheckpointLSN:    lsn,
	}
}

// Validate checks every shard's structural invariants and shard-range
// ownership; O(n), for tests and debugging.
func (s *Sharded) Validate() error { return s.m.Validate() }

// InsertKV implements UpdatableMap.
func (s *Sharded) InsertKV(key, val int64) error { return s.Insert(key, val) }

// DeleteKey implements UpdatableMap.
func (s *Sharded) DeleteKey(key int64) (bool, error) { return s.Delete(key) }

var _ UpdatableMap = (*Sharded)(nil)
