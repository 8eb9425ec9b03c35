// Package shard implements the concurrent serving layer over the RMA:
// an ordered map that partitions the key space across K independent
// core.Array instances, each guarded by its own lock.
//
// Sharding is the natural concurrency boundary for this structure
// because everything the engine does — rebalances, rewiring, resizes —
// is confined to one array's page space (PUMA makes the same argument
// for page-granular allocation). Shard boundaries are immutable after
// construction, so routing a key to its shard is a lock-free binary
// search; only the per-shard work takes a lock. Keys never migrate
// between shards, which keeps every cross-shard read (merged iteration,
// rank sums, range counts) a sequence of per-shard critical sections
// with no global lock and no lock coupling.
//
// Concurrency contract (see CONCURRENCY.md at the repo root):
//
//   - Every operation locks at most one shard at a time; multi-shard
//     operations visit shards in ascending index order.
//   - Shard locks are exclusive even for reads: the engine's "read"
//     paths mutate internal state (operation counters, walker scratch),
//     so they cannot share a shard. Point reads avoid the lock instead
//     of sharing it (below).
//   - Single-shard point operations (Insert, Delete, Find, Contains)
//     are linearizable. Every operation that may visit more than one
//     shard — iterators, Min/Max, Floor/Ceiling, Rank, Select,
//     CountRange, Sum, Size, ApplyBatch — is atomic per shard but not
//     across shards: concurrent writers can interleave between shard
//     visits (a Floor probing leftward can return a key that was
//     deleted after its owning shard was passed). Within one shard the
//     view is always consistent, and the merged key order is always
//     globally ascending because shards own disjoint key ranges.
//   - Iterator and scan callbacks run while the current shard's lock is
//     held and must not call back into the same Map.
//
// Point reads — Find/Contains/Floor/Ceiling/GetBatch — first attempt a
// seqlock-validated optimistic read against the engine's published read
// view (core.ReadFind and friends mutate nothing), and take the shard
// lock only after a bounded number of lost races (see seqlock.go).
// Writes bump a per-shard version word around every reader-visible
// mutation; retired vmem pages pass through an epoch gate so an
// in-flight optimistic reader can never observe a recycled page.
// Cross-shard scans additionally capture a per-shard version vector and
// report whether the whole traversal observed a single consistent cut
// (see snapshot.go).
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rma/internal/core"
	"rma/internal/vmem"
	"rma/internal/wal"
)

const (
	minKey = -1 << 63
	maxKey = 1<<63 - 1
)

// cell is one shard: a lock and its array, padded to whole cache lines
// so that neighbouring shards' locks and version words never share one
// under concurrent traffic (the size is pinned by TestCellPadding).
//
// ver is the shard's seqlock word: even when quiescent, odd while a
// writer is mutating reader-visible state. Writers bump it twice around
// every mutation (beginWrite/endWrite, under mu); optimistic readers
// capture an even value before reading and revalidate after. gate is
// the shard's vmem epoch gate: readers pin an epoch for the duration of
// one optimistic attempt, and pages retired by rebalances wait in the
// gate's limbo until no reader can still hold a reference.
type cell struct {
	mu   sync.Mutex
	a    *core.Array
	ver  atomic.Uint64
	gate *vmem.EpochGate
	// wop is the shard's one-op WAL staging scratch (guarded by mu, like
	// the array): point writes encode into it so the logged put path
	// allocates nothing.
	wop [1]wal.Op
	_   [64 - 56]byte

	// Read-path counters, summed into Stats. Optimistic readers bump
	// them outside the lock, so they sit on their own cache line: a
	// reader's count must not invalidate the line its neighbours
	// validate ver on.
	optimisticReads atomic.Uint64
	readRetries     atomic.Uint64
	readFallbacks   atomic.Uint64
	_               [64 - 24]byte
}

// install gives the shard its array and a fresh epoch gate, routing the
// array's page retirement through the gate. Runs while the map is being
// built or recovered, before it is shared.
//
//rma:init
func (s *cell) install(a *core.Array) {
	s.a = a
	s.gate = vmem.NewEpochGate()
	a.AttachEpochGate(s.gate)
}

// beginWrite/endWrite bracket a reader-visible mutation: ver goes odd,
// the mutation runs, ver returns even. Callers must hold s.mu (the
// mutex serializes writers; the version word serializes readers).
func (s *cell) beginWrite() { s.ver.Add(1) }
func (s *cell) endWrite()   { s.ver.Add(1) }

// advanceEpoch attempts one epoch-gate advance when retired pages are
// waiting in limbo. Must run under s.mu — the gate's limbo list is
// guarded by the owning shard's lock.
func (s *cell) advanceEpoch() {
	if s.gate.LimboPages() > 0 {
		s.gate.TryAdvance()
	}
}

// Map is the sharded ordered map. Create one with New; the zero value
// is not usable. All methods are safe for concurrent use.
type Map struct {
	// seps holds the K-1 shard separators: shard i owns keys k with
	// seps[i-1] <= k < seps[i] (boundary sentinels implied at the ends
	// of the int64 domain). Immutable after New, hence read lock-free.
	seps   []int64
	shards []cell

	// notify, when non-nil, is called outside any shard lock after a
	// write left deferred rebalance work pending — the hook that wakes
	// internal/rebal's worker pool. Set once by
	// EnableDeferredRebalancing before the map is shared; immutable
	// afterwards (like seps), hence read lock-free.
	notify func()

	// dur is the durability coordination block (see durable.go); nil for
	// an in-memory map. Set once by EnableDurability/OpenMap before the
	// map is shared; the pointer is immutable afterwards (like seps) and
	// the block's own state is all atomics.
	dur *durState

	// wal, when non-nil, logs every acknowledged write before its caller
	// returns (see wal.go). Set once by EnableWAL/OpenMapWAL before the
	// map is shared; immutable afterwards (like seps). walPolicy is the
	// automatic checkpoint scheduler's thresholds; autoCheckpoints
	// counts the rounds the scheduler started.
	wal             *wal.Log
	walPolicy       WALPolicy
	autoCheckpoints atomic.Uint64

	// snapshotBreaks counts cross-shard reads that settled for a torn
	// cut (see snapshot.go); merged into Stats.
	snapshotBreaks atomic.Uint64
}

// New builds a Map with len(seps)+1 shards, one fresh core.Array per
// shard built from cfg. seps must be non-decreasing; equal separators
// are allowed and simply leave the shard between them empty. cfg must
// use the clustered layout — the only one the optimistic read path
// (core.ReadFind and friends) understands.
//
// New fills shard state before the map is shared, so it runs without
// shard locks (lockcheck's //rma:init escape).
//
//rma:init
func New(cfg core.Config, seps []int64) (*Map, error) {
	if cfg.Layout != core.LayoutClustered {
		return nil, fmt.Errorf("shard: %w", core.ErrClusteredOnly)
	}
	for i := 1; i < len(seps); i++ {
		if seps[i] < seps[i-1] {
			return nil, fmt.Errorf("shard: separators must be non-decreasing, got %d after %d", seps[i], seps[i-1])
		}
	}
	m := &Map{
		seps:   append([]int64(nil), seps...),
		shards: make([]cell, len(seps)+1),
	}
	for i := range m.shards {
		a, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		m.shards[i].install(a)
	}
	return m, nil
}

// UniformSeps returns k-1 separators splitting the full int64 key
// domain into k equal spans: the default when nothing is known about
// the key distribution.
func UniformSeps(k int) []int64 {
	if k <= 1 {
		return nil
	}
	step := ^uint64(0)/uint64(k) + 1
	seps := make([]int64, k-1)
	for i := range seps {
		seps[i] = minKey + int64(uint64(i+1)*step)
	}
	return seps
}

// QuantileSeps returns k-1 separators at the quantiles of sample, so
// each shard receives roughly the same share of a workload distributed
// like the sample. The sample is not modified. With fewer distinct
// sample keys than shards, some shards own empty ranges — harmless.
func QuantileSeps(k int, sample []int64) []int64 {
	if k <= 1 || len(sample) == 0 {
		return UniformSeps(k)
	}
	sorted := append([]int64(nil), sample...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	seps := make([]int64, k-1)
	for i := range seps {
		seps[i] = sorted[len(sorted)*(i+1)/k]
	}
	return seps
}

// NumShards returns the number of shards K.
func (m *Map) NumShards() int { return len(m.shards) }

// Boundaries returns a copy of the K-1 shard separators.
func (m *Map) Boundaries() []int64 { return append([]int64(nil), m.seps...) }

// shardOf routes a key to its owning shard: the first shard whose upper
// separator exceeds the key. Lock-free — seps is immutable.
func (m *Map) shardOf(key int64) int {
	lo, hi := 0, len(m.seps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if key < m.seps[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// ownRange returns the key interval [lo, hi] owned by shard i
// (inclusive bounds, clipped to the int64 domain).
func (m *Map) ownRange(i int) (lo, hi int64) {
	lo, hi = minKey, maxKey
	if i > 0 {
		lo = m.seps[i-1]
	}
	if i < len(m.seps) {
		hi = m.seps[i] - 1
	}
	return lo, hi
}

// --- deferred rebalancing ---------------------------------------------------

// EnableDeferredRebalancing switches every shard's engine into deferred
// mode (see internal/core/pending.go): overflowing inserts do only a
// minimal local spread and queue the density violation; MaintainShard
// executes the deferred work. notify, if non-nil, is invoked outside
// any shard lock after a write leaves work pending — wire it to the
// maintenance pool's Notify. Must be called before the map is shared
// across goroutines (the facade calls it at construction).
func (m *Map) EnableDeferredRebalancing(notify func()) {
	m.notify = notify
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.a.SetDeferRebalance(true)
		s.mu.Unlock()
	}
}

// DisableDeferredRebalancing drains every shard's backlog and returns
// the shards to synchronous rebalancing. Used on Close so a map
// outliving its maintenance pool keeps the synchronous contract.
func (m *Map) DisableDeferredRebalancing() error {
	var first error
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		err := flushDeferred(s)
		s.a.SetDeferRebalance(false)
		s.mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MaintainShard performs at most one slice of deferred work on shard i
// — one queued violation resolved under one short lock acquisition —
// reporting whether an entry was processed. This is internal/rebal's
// Source surface; the bounded slice is what lets maintenance interleave
// with foreground writers instead of stalling a shard for its whole
// backlog.
//
// When a checkpoint round is in flight (RequestCheckpoint) and shard
// i's backlog is empty, the slice is the shard's checkpoint instead
// (checkpointShard in durable.go): the quiesce point the durability
// protocol wants — no deferred windows standing, nothing mid-rebalance —
// found for free inside the maintenance sweep.
func (m *Map) MaintainShard(i int) (bool, error) {
	s := &m.shards[i]
	s.mu.Lock()
	var did bool
	var err error
	if s.a.PendingCount() > 0 {
		// Only bracket sweeps that can mutate: an idle MaintainOne must
		// not bump the version word, or background maintenance would
		// invalidate snapshot version vectors without changing anything.
		s.beginWrite()
		did, err = s.a.MaintainOne()
		s.endWrite()
	}
	s.advanceEpoch()
	s.mu.Unlock()
	if err == nil && !did {
		return m.checkpointShard(i)
	}
	return did, err
}

// PendingShard returns shard i's deferred-window backlog.
func (m *Map) PendingShard(i int) int {
	s := &m.shards[i]
	s.mu.Lock()
	n := s.a.PendingCount()
	s.mu.Unlock()
	return n
}

// PendingWindows returns the total deferred-window backlog across
// shards (diagnostics; per-shard consistent, not a global snapshot).
func (m *Map) PendingWindows() int {
	n := 0
	for i := range m.shards {
		n += m.PendingShard(i)
	}
	return n
}

// FlushAll synchronously drains every shard's deferred backlog.
func (m *Map) FlushAll() error {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		err := flushDeferred(s)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// maintenanceHint wakes the maintenance pool when a write left deferred
// work behind. pending is read under the shard lock; the call happens
// after release so the worker can take the lock immediately.
func (m *Map) maintenanceHint(pending int) {
	if pending > 0 && m.notify != nil {
		m.notify()
	}
}

// --- point operations -------------------------------------------------------

// Insert adds a key/value pair to the owning shard. With a WAL, the
// write is logged under the shard lock and acknowledged only once its
// commit wave is durable (the wait happens after the lock is released,
// so the fsync latency never serializes the shard).
func (m *Map) Insert(key, val int64) error {
	j := m.shardOf(key)
	s := &m.shards[j]
	s.mu.Lock()
	s.beginWrite()
	err := s.a.Insert(key, val)
	s.endWrite()
	s.advanceEpoch()
	var t wal.Ticket
	if err == nil && m.wal != nil {
		t, err = m.logOne(s, j, wal.Op{Kind: wal.OpPut, Key: key, Val: val})
	}
	pending := s.a.PendingCount()
	s.mu.Unlock()
	m.maintenanceHint(pending)
	if err == nil && t.Ok() {
		err = m.wal.Wait(t)
	}
	return err
}

// Delete removes one occurrence of key, reporting whether it existed.
// Only deletions that found their key are logged — a no-op needs no
// replay — with the same log-then-wait protocol as Insert.
func (m *Map) Delete(key int64) (bool, error) {
	j := m.shardOf(key)
	s := &m.shards[j]
	s.mu.Lock()
	s.beginWrite()
	ok, err := s.a.Delete(key)
	s.endWrite()
	s.advanceEpoch()
	var t wal.Ticket
	if err == nil && ok && m.wal != nil {
		t, err = m.logOne(s, j, wal.Op{Kind: wal.OpDelete, Key: key})
	}
	s.mu.Unlock()
	if err == nil && t.Ok() {
		err = m.wal.Wait(t)
	}
	return ok, err
}

// Find returns a value stored under key.
func (m *Map) Find(key int64) (int64, bool) {
	j := m.shardOf(key)
	if v, ok, done := m.seqFind(j, key); done {
		return v, ok
	}
	s := &m.shards[j]
	s.mu.Lock()
	v, ok := s.a.Find(key)
	s.mu.Unlock()
	return v, ok
}

// Contains reports whether key is stored.
func (m *Map) Contains(key int64) bool {
	_, ok := m.Find(key)
	return ok
}

// --- min/max and navigation -------------------------------------------------

// Min returns the smallest stored key.
func (m *Map) Min() (int64, bool) {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		k, ok := s.a.Min()
		s.mu.Unlock()
		if ok {
			return k, true
		}
	}
	return 0, false
}

// Max returns the largest stored key.
func (m *Map) Max() (int64, bool) {
	for i := len(m.shards) - 1; i >= 0; i-- {
		s := &m.shards[i]
		s.mu.Lock()
		k, ok := s.a.Max()
		s.mu.Unlock()
		if ok {
			return k, true
		}
	}
	return 0, false
}

// shardFloor probes shard i for the greatest element with key <= x:
// optimistically first, under the lock once the retries are spent.
func (m *Map) shardFloor(i int, x int64) (key, val int64, ok bool) {
	if k, v, ok, done := m.seqFloor(i, x); done {
		return k, v, ok
	}
	s := &m.shards[i]
	s.mu.Lock()
	key, val, ok = s.a.Floor(x)
	s.mu.Unlock()
	return key, val, ok
}

// shardCeiling probes shard i for the smallest element with key >= x.
func (m *Map) shardCeiling(i int, x int64) (key, val int64, ok bool) {
	if k, v, ok, done := m.seqCeiling(i, x); done {
		return k, v, ok
	}
	s := &m.shards[i]
	s.mu.Lock()
	key, val, ok = s.a.Ceiling(x)
	s.mu.Unlock()
	return key, val, ok
}

// Floor returns the greatest stored element with key <= x: the owning
// shard's floor, or the max of the nearest non-empty shard to the left.
func (m *Map) Floor(x int64) (key, val int64, ok bool) {
	j := m.shardOf(x)
	if key, val, ok = m.shardFloor(j, x); ok {
		return key, val, true
	}
	for i := j - 1; i >= 0; i-- {
		if key, val, ok = m.shardFloor(i, maxKey); ok {
			return key, val, true
		}
	}
	return 0, 0, false
}

// Ceiling returns the smallest stored element with key >= x.
func (m *Map) Ceiling(x int64) (key, val int64, ok bool) {
	j := m.shardOf(x)
	if key, val, ok = m.shardCeiling(j, x); ok {
		return key, val, true
	}
	for i := j + 1; i < len(m.shards); i++ {
		if key, val, ok = m.shardCeiling(i, minKey); ok {
			return key, val, true
		}
	}
	return 0, 0, false
}

// --- order statistics ---------------------------------------------------------

// Select returns the i-th smallest element (0-based), walking shards
// left to right until the index falls inside one.
func (m *Map) Select(i int) (key, val int64, ok bool) {
	if i < 0 {
		return 0, 0, false
	}
	for j := range m.shards {
		s := &m.shards[j]
		s.mu.Lock()
		n := s.a.Size()
		if i < n {
			key, val, ok = s.a.Select(i)
			s.mu.Unlock()
			return key, val, ok
		}
		s.mu.Unlock()
		i -= n
	}
	return 0, 0, false
}

// CountRange returns the number of elements with lo <= key <= hi:
// boundary shards answer with their Fenwick counts, interior shards
// contribute their whole size.
func (m *Map) CountRange(lo, hi int64) int {
	if lo > hi {
		return 0
	}
	jLo, jHi := m.shardOf(lo), m.shardOf(hi)
	cnt := 0
	for j := jLo; j <= jHi; j++ {
		s := &m.shards[j]
		s.mu.Lock()
		if j > jLo && j < jHi {
			cnt += s.a.Size()
		} else {
			cnt += s.a.CountRange(lo, hi)
		}
		s.mu.Unlock()
	}
	return cnt
}

// --- bookkeeping --------------------------------------------------------------

// Size returns the total number of stored elements across shards.
func (m *Map) Size() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.a.Size()
		s.mu.Unlock()
	}
	return n
}

// ShardSizes returns the per-shard element counts (inspection and load
// diagnostics).
func (m *Map) ShardSizes() []int {
	out := make([]int, len(m.shards))
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		out[i] = s.a.Size()
		s.mu.Unlock()
	}
	return out
}

// FootprintBytes returns the physical memory held by all shards plus
// the separator table.
func (m *Map) FootprintBytes() int64 {
	f := int64(cap(m.seps)) * 8
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		f += s.a.FootprintBytes()
		s.mu.Unlock()
	}
	return f
}

// Stats returns the operation counters summed across shards
// (MaxWindowSegments is the maximum).
func (m *Map) Stats() core.Stats {
	var t core.Stats
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		t.Add(s.a.Stats())
		t.EpochAdvances += s.gate.Advances()
		t.LockFreeReads += s.optimisticReads.Load()
		t.ReadRetries += s.readRetries.Load()
		t.ReadFallbacks += s.readFallbacks.Load()
		s.mu.Unlock()
	}
	t.SnapshotBreaks = m.snapshotBreaks.Load()
	if m.wal != nil {
		ws := m.wal.Stats()
		t.WALRecords = ws.Records
		t.WALWaves = ws.Waves
		t.WALSyncs = ws.Syncs
		t.WALRotations = ws.Rotations
		t.WALTruncations = ws.Truncations
		t.WALAppendFailures = ws.AppendFailures
		t.WALSyncFailures = ws.SyncFailures
		t.WALRotateFailures = ws.RotateFailures
		t.WALTruncateFailures = ws.TruncateFailures
	}
	t.AutoCheckpoints = m.autoCheckpoints.Load()
	return t
}

// EnableLockFreeReads does nothing: optimistic reads are the only read
// route.
//
// Deprecated: always on. Kept only until the benchmark's shard.Map rung
// (bench/ladder.go) stops calling it.
func (m *Map) EnableLockFreeReads() {}

// Quiesce advances every shard's epoch gate as far as reader occupancy
// allows, draining limbo pages back to the spare pools. internal/rebal
// calls it before parking its workers; tests call it to assert
// reclamation progress.
func (m *Map) Quiesce() {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.advanceEpoch()
		s.mu.Unlock()
	}
}

// Validate checks every shard's structural invariants and that every
// stored key lies inside its shard's owned range. O(n); for tests.
func (m *Map) Validate() error {
	for i := range m.shards {
		s := &m.shards[i]
		lo, hi := m.ownRange(i)
		s.mu.Lock()
		err := s.a.Validate()
		if err == nil {
			if mn, ok := s.a.Min(); ok && mn < lo {
				err = fmt.Errorf("shard %d: key %d below owned range [%d, %d]", i, mn, lo, hi)
			}
			if mx, ok := s.a.Max(); ok && mx > hi {
				err = fmt.Errorf("shard %d: key %d above owned range [%d, %d]", i, mx, lo, hi)
			}
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
