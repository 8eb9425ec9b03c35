package shard

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"rma/internal/core"
	"rma/internal/workload"
)

// testConfig returns a small-geometry config so a few thousand keys
// exercise rebalances and resizes inside every shard.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.SegmentSlots = 16
	cfg.PageSlots = 64
	return cfg
}

// TestCellPadding pins the shard cell's layout: whole cache lines, so
// neighbouring shards' locks and version words never share one, and the
// reader-bumped counters off the line that holds the lock and version.
func TestCellPadding(t *testing.T) {
	typ := reflect.TypeOf((*cell)(nil)).Elem()
	if typ.Size()%64 != 0 {
		t.Errorf("cell is %d bytes, want a multiple of 64", typ.Size())
	}
	f, _ := typ.FieldByName("optimisticReads")
	if f.Offset%64 != 0 {
		t.Errorf("cell.optimisticReads at offset %d, want the start of a cache line", f.Offset)
	}
}

func mustNew(t *testing.T, k int, seps []int64) *Map {
	t.Helper()
	m, err := New(testConfig(), seps)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumShards(); got != k {
		t.Fatalf("NumShards = %d, want %d", got, k)
	}
	return m
}

func TestUniformSeps(t *testing.T) {
	if got := UniformSeps(1); got != nil {
		t.Fatalf("UniformSeps(1) = %v, want nil", got)
	}
	seps := UniformSeps(2)
	if len(seps) != 1 || seps[0] != 0 {
		t.Fatalf("UniformSeps(2) = %v, want [0]", seps)
	}
	for _, k := range []int{3, 4, 7, 8, 64} {
		seps := UniformSeps(k)
		if len(seps) != k-1 {
			t.Fatalf("UniformSeps(%d) has %d separators", k, len(seps))
		}
		for i := 1; i < len(seps); i++ {
			if seps[i] <= seps[i-1] {
				t.Fatalf("UniformSeps(%d) not increasing: %v", k, seps)
			}
		}
	}
}

func TestQuantileSeps(t *testing.T) {
	sample := []int64{10, 20, 30, 40, 50, 60, 70, 80}
	seps := QuantileSeps(4, sample)
	if len(seps) != 3 {
		t.Fatalf("QuantileSeps = %v, want 3 separators", seps)
	}
	for i := 1; i < len(seps); i++ {
		if seps[i] < seps[i-1] {
			t.Fatalf("QuantileSeps not non-decreasing: %v", seps)
		}
	}
	// An all-equal sample collapses every separator; routing must still
	// work and all keys land in a live shard.
	m := mustNew(t, 4, QuantileSeps(4, []int64{5, 5, 5, 5}))
	for _, k := range []int64{-10, 4, 5, 6, 100} {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 5 {
		t.Fatalf("Size = %d, want 5", m.Size())
	}
}

func TestNewRejectsDecreasingSeps(t *testing.T) {
	if _, err := New(testConfig(), []int64{10, 5}); err == nil {
		t.Fatal("New accepted decreasing separators")
	}
}

// TestNewRejectsInterleaved pins the single-engine fence: the paper's
// baseline layout is never sharded (the optimistic read view cannot read
// it), so New refuses it instead of carrying it.
func TestNewRejectsInterleaved(t *testing.T) {
	cfg := core.BaselineConfig()
	if _, err := New(cfg, UniformSeps(2)); !errors.Is(err, core.ErrClusteredOnly) {
		t.Fatalf("New with the baseline config: want ErrClusteredOnly, got %v", err)
	}
	cfg = testConfig()
	cfg.Layout = core.LayoutInterleaved
	if _, err := New(cfg, nil); !errors.Is(err, core.ErrClusteredOnly) {
		t.Fatalf("New with an interleaved layout: want ErrClusteredOnly, got %v", err)
	}
}

func TestShardOfRouting(t *testing.T) {
	m := mustNew(t, 4, []int64{100, 200, 300})
	cases := map[int64]int{
		minKey: 0, 0: 0, 99: 0,
		100: 1, 199: 1,
		200: 2, 299: 2,
		300: 3, maxKey: 3,
	}
	for k, want := range cases {
		if got := m.shardOf(k); got != want {
			t.Errorf("shardOf(%d) = %d, want %d", k, got, want)
		}
	}
	// Every inserted key must satisfy its shard's owned range.
	rng := workload.NewRNG(3)
	for i := 0; i < 5000; i++ {
		k := int64(rng.Uint64n(400))
		if err := m.Insert(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCrossBoundaryNavigation pins the merged Min/Max/Floor/Ceiling
// behaviour when the answer lives in a different shard than the probe,
// including across empty shards.
func TestCrossBoundaryNavigation(t *testing.T) {
	m := mustNew(t, 4, []int64{100, 200, 300})
	// Populate only shards 0 and 3: shards 1 and 2 stay empty.
	for _, k := range []int64{10, 20, 30} {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int64{310, 320} {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}

	if k, ok := m.Min(); !ok || k != 10 {
		t.Fatalf("Min = (%d,%v), want 10", k, ok)
	}
	if k, ok := m.Max(); !ok || k != 320 {
		t.Fatalf("Max = (%d,%v), want 320", k, ok)
	}
	// Floor(250) probes empty shard 2, then empty shard 1, then shard 0.
	if k, _, ok := m.Floor(250); !ok || k != 30 {
		t.Fatalf("Floor(250) = (%d,%v), want 30", k, ok)
	}
	// Ceiling(50) probes shard 0 (no key >= 50), then 1, 2, finally 3.
	if k, _, ok := m.Ceiling(50); !ok || k != 310 {
		t.Fatalf("Ceiling(50) = (%d,%v), want 310", k, ok)
	}
	if _, _, ok := m.Floor(5); ok {
		t.Fatal("Floor(5) found an element below every key")
	}
	if _, _, ok := m.Ceiling(400); ok {
		t.Fatal("Ceiling(400) found an element above every key")
	}
	// Rank/CountRange across the empty middle.
	if got := m.Rank(305); got != 3 {
		t.Fatalf("Rank(305) = %d, want 3", got)
	}
	if got := m.CountRange(20, 310); got != 3 {
		t.Fatalf("CountRange(20,310) = %d, want 3", got)
	}
	if got := m.CountRange(310, 20); got != 0 {
		t.Fatalf("inverted CountRange = %d, want 0", got)
	}
	// Select across shards.
	if k, _, ok := m.Select(3); !ok || k != 310 {
		t.Fatalf("Select(3) = (%d,%v), want 310", k, ok)
	}
	if _, _, ok := m.Select(5); ok {
		t.Fatal("Select(5) ok with 5 elements")
	}
}

// TestApplyBatchMatchesSequential drives random batches through
// ApplyBatch and the same ops one-by-one through a twin map; final
// contents must match exactly, and the batch path must have used the
// bulk loader for long put runs.
func TestApplyBatchMatchesSequential(t *testing.T) {
	seps := []int64{256, 512, 768}
	batched := mustNew(t, 4, seps)
	serial := mustNew(t, 4, seps)

	rng := workload.NewRNG(17)
	totalDeleted := 0
	for round := 0; round < 30; round++ {
		n := 16 + int(rng.Uint64n(512))
		// Every third round is a pure ingest burst (long put runs ride
		// the bulk path); the others interleave deletes.
		delPct := uint64(25)
		if round%3 == 0 {
			delPct = 0
		}
		ops := make([]Op, n)
		for i := range ops {
			k := int64(rng.Uint64n(1024))
			if rng.Uint64n(100) < delPct {
				ops[i] = Op{Kind: OpDelete, Key: k}
			} else {
				ops[i] = Op{Kind: OpPut, Key: k, Val: k * 3}
			}
		}
		d, err := batched.ApplyBatch(ops)
		if err != nil {
			t.Fatal(err)
		}
		totalDeleted += d
		want := 0
		for _, op := range ops {
			if op.Kind == OpDelete {
				ok, err := serial.Delete(op.Key)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					want++
				}
			} else if err := serial.Insert(op.Key, op.Val); err != nil {
				t.Fatal(err)
			}
		}
		if d != want {
			t.Fatalf("round %d: ApplyBatch deleted %d, serial deleted %d", round, d, want)
		}
	}
	if totalDeleted == 0 {
		t.Fatal("no delete ever landed; the test proves nothing")
	}
	if batched.Stats().BulkLoads == 0 {
		t.Fatal("ApplyBatch never took the bulk path")
	}

	if bs, ss := batched.Size(), serial.Size(); bs != ss {
		t.Fatalf("sizes diverge: batched %d, serial %d", bs, ss)
	}
	var got, want []int64
	batched.Scan(func(k, v int64) bool { got = append(got, k, v); return true })
	serial.Scan(func(k, v int64) bool { want = append(want, k, v); return true })
	if len(got) != len(want) {
		t.Fatalf("scan lengths diverge: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan diverges at %d: %d vs %d", i, got[i], want[i])
		}
	}
	if err := batched.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMergedIterationOrder checks global ordering and early termination
// of the merged iterators over a multi-shard population.
func TestMergedIterationOrder(t *testing.T) {
	m := mustNew(t, 8, QuantileSeps(8, sampleKeys(4096, 5)))
	keys := sampleKeys(4096, 6)
	for _, k := range keys {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	sorted := append([]int64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	i := 0
	for k := range m.IterAscend(minKey, maxKey) {
		if k != sorted[i] {
			t.Fatalf("ascend[%d] = %d, want %d", i, k, sorted[i])
		}
		i++
	}
	if i != len(sorted) {
		t.Fatalf("ascend yielded %d of %d", i, len(sorted))
	}
	i = 0
	for k := range m.IterDescend(minKey, maxKey) {
		if want := sorted[len(sorted)-1-i]; k != want {
			t.Fatalf("descend[%d] = %d, want %d", i, k, want)
		}
		i++
	}
	if i != len(sorted) {
		t.Fatalf("descend yielded %d of %d", i, len(sorted))
	}
	// Early break mid-shard and mid-map.
	for _, stop := range []int{1, len(sorted) / 2} {
		seen := 0
		for range m.IterAscend(minKey, maxKey) {
			seen++
			if seen == stop {
				break
			}
		}
		if seen != stop {
			t.Fatalf("early break visited %d, want %d", seen, stop)
		}
	}
	// Sum must agree with the merged contents.
	var wantSum int64
	for _, k := range sorted {
		wantSum += k
	}
	if cnt, sum := m.SumAll(); cnt != len(sorted) || sum != wantSum {
		t.Fatalf("SumAll = (%d,%d), want (%d,%d)", cnt, sum, len(sorted), wantSum)
	}
}

func sampleKeys(n int, seed uint64) []int64 {
	rng := workload.NewRNG(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Uint64n(100000))
	}
	return out
}

func TestStatsAggregation(t *testing.T) {
	m := mustNew(t, 4, QuantileSeps(4, sampleKeys(1024, 9)))
	for _, k := range sampleKeys(20000, 10) {
		if err := m.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.Inserts != 20000 {
		t.Fatalf("aggregated Inserts = %d, want 20000", st.Inserts)
	}
	if st.Rebalances == 0 || st.Grows == 0 {
		t.Fatalf("expected rebalances and grows across shards, got %+v", st)
	}
	if m.FootprintBytes() <= 0 {
		t.Fatal("FootprintBytes not positive")
	}
	sizes := m.ShardSizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != m.Size() || total != 20000 {
		t.Fatalf("ShardSizes sum %d, Size %d, want 20000", total, m.Size())
	}
	// Quantile boundaries should spread a matching workload: no shard
	// should hold everything.
	for i, s := range sizes {
		if s == total {
			t.Fatalf("shard %d holds all %d elements; boundaries did not spread", i, s)
		}
	}
}
