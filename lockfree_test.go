package rma

import (
	"sync"
	"sync/atomic"
	"testing"

	"rma/internal/workload"
)

// Unit tests for the lock-free read path at the facade: exactness
// against a quiescent map, deterministic retry provocation, and the
// zero-allocation pin on the fast path.

// newLockFreeFixture builds a sharded map holding diffVal pairs for
// every even key in [0, 2n).
func newLockFreeFixture(t *testing.T, n int, opts ...Option) *Sharded {
	t.Helper()
	sample := make([]int64, 128)
	for i := range sample {
		sample[i] = int64(i) * int64(2*n) / int64(len(sample))
	}
	opts = append([]Option{WithSegmentCapacity(16), WithPageCapacity(64)}, opts...)
	s, err := NewShardedFromSample(6, sample, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := int64(i) * 2
		if err := s.Insert(k, diffVal(k)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestLockFreeReadsExact: with no writers racing, every lock-free read
// must agree exactly with the reference, and the LockFreeReads counter
// must account for each of them — a quiescent map never retries.
func TestLockFreeReadsExact(t *testing.T) {
	const n = 4096
	s := newLockFreeFixture(t, n)
	for i := int64(0); i < 2*n; i++ {
		v, ok := s.Find(i)
		if want := i%2 == 0; ok != want || (ok && v != diffVal(i)) {
			t.Fatalf("Find(%d) = (%d,%v)", i, v, ok)
		}
		if fk, _, ok := s.Floor(i); !ok || fk != i-i%2 {
			t.Fatalf("Floor(%d) = (%d,%v), want %d", i, fk, ok, i-i%2)
		}
		if ck, _, ok := s.Ceiling(i); i < 2*n-1 && (!ok || ck != i+i%2) {
			t.Fatalf("Ceiling(%d) = (%d,%v), want %d", i, ck, ok, i+i%2)
		}
	}
	st := s.Stats()
	if st.LockFreeReads == 0 {
		t.Fatal("no read took the lock-free path")
	}
	if st.ReadRetries != 0 || st.ReadFallbacks != 0 {
		t.Fatalf("quiescent map retried (%d) or fell back (%d)", st.ReadRetries, st.ReadFallbacks)
	}
}

// TestLockFreeReadRetriesProgress provokes retries deterministically: a
// writer hammers one shard in a tight loop while a reader probes the
// same shard's keys, so version collisions are guaranteed to occur and
// the ReadRetries counter must move. The reader stops as soon as the
// counter progresses, keeping the test fast and unflaky.
func TestLockFreeReadRetriesProgress(t *testing.T) {
	const n = 2048
	s := newLockFreeFixture(t, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Insert/delete the same key forever: every cycle bumps the
		// owning shard's version twice.
		for !stop.Load() {
			if err := s.Insert(1, diffVal(1)); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.Delete(1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rng := workload.NewRNG(11)
	for i := 0; i < 5_000_000; i++ {
		k := int64(rng.Uint64n(64)) // keys 0..63 share low shards with key 1
		if v, ok := s.Find(k); ok && v != diffVal(k) {
			t.Errorf("Find(%d) = %d, want %d", k, v, diffVal(k))
			break
		}
		if s.Stats().ReadRetries > 0 {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := s.Stats()
	if st.ReadRetries == 0 {
		t.Fatal("5M reads against a spinning writer never recorded a retry")
	}
	t.Logf("retries %d, fallbacks %d, lock-free reads %d", st.ReadRetries, st.ReadFallbacks, st.LockFreeReads)
}

// TestLockFreeGetAllocationFree pins the fast path at zero allocations
// per point read: Find, Floor, Ceiling and a pooled GetBatch must not
// allocate, or the "lock-free" path would pay the allocator's locks
// instead. Skipped under -race, where the readLock shims take the shard
// mutex and sync.Pool intentionally allocates.
func TestLockFreeGetAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pin is meaningless under -race instrumentation")
	}
	const n = 8192
	s := newLockFreeFixture(t, n)
	var sink int64
	probes := [4]int64{3, 4096, 8190, 16384}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, k := range probes[:] {
			v, _ := s.Find(k)
			sink += v
			fk, _, _ := s.Floor(k)
			ck, _, _ := s.Ceiling(k)
			sink += fk + ck
		}
	}); allocs != 0 {
		t.Errorf("lock-free Find/Floor/Ceiling: %.1f allocs/run, want 0", allocs)
	}
	keys := make([]int64, 64)
	for i := range keys {
		keys[i] = int64(i) * 251 % (2 * n)
	}
	out := make([]Lookup, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		out = s.GetBatch(keys, out)
		sink += out[0].Val
	}); allocs != 0 {
		t.Errorf("lock-free GetBatch: %.1f allocs/run, want 0", allocs)
	}
	_ = sink
	if st := s.Stats(); st.LockFreeReads == 0 {
		t.Fatal("the allocation pin never exercised the lock-free path")
	}
}

// TestSnapshotScanConsistentUnderWriters: a scan that returns true
// promises a single consistent cut; with writers storing only diffVal
// and scans retried until consistent, the yielded sequence must always
// be sorted, in range, and exact per element.
func TestSnapshotScanConsistentUnderWriters(t *testing.T) {
	const n = 2048
	s := newLockFreeFixture(t, n, WithBackgroundRebalancing(1))
	defer s.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := workload.NewRNG(9)
		for !stop.Load() {
			k := int64(rng.Uint64n(2 * n))
			if rng.Uint64n(2) == 0 {
				if err := s.Insert(k, diffVal(k)); err != nil {
					t.Error(err)
					return
				}
			} else if _, err := s.Delete(k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	consistent, broken := 0, 0
	for i := 0; i < 2_000; i++ {
		prev := int64(minInt64)
		ok := s.SnapshotScan(0, 2*n, func(k, v int64) bool {
			if k < prev || v != diffVal(k) {
				t.Errorf("SnapshotScan yielded (%d,%d) after %d", k, v, prev)
				return false
			}
			prev = k
			return true
		})
		if ok {
			consistent++
		} else {
			broken++
		}
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if consistent == 0 {
		t.Error("2000 snapshot scans never once observed a consistent cut")
	}
	if st := s.Stats(); broken > 0 && st.SnapshotBreaks == 0 {
		t.Errorf("%d scans reported broken cuts but SnapshotBreaks is 0", broken)
	}
	t.Logf("scans: %d consistent, %d broken; SnapshotBreaks=%d", consistent, broken, s.Stats().SnapshotBreaks)
}

// TestSnapshotBreaksCountFinalDegradationsOnly: under a sustained
// writer, snapshot scans restart with backoff before settling for a
// torn verdict — so the SnapshotBreaks counter must equal exactly the
// number of scans that actually REPORTED a broken cut, never the
// (larger) number of broken attempts the retry loop absorbed.
func TestSnapshotBreaksCountFinalDegradationsOnly(t *testing.T) {
	const n = 2048
	s := newLockFreeFixture(t, n, WithBackgroundRebalancing(1))
	defer s.Close()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := workload.NewRNG(31)
		for !stop.Load() {
			k := int64(rng.Uint64n(2 * n))
			if rng.Uint64n(2) == 0 {
				if err := s.Insert(k, diffVal(k)); err != nil {
					t.Error(err)
					return
				}
			} else if _, err := s.Delete(k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	torn := uint64(0)
	for i := 0; i < 3_000; i++ {
		if !s.SnapshotScan(0, 2*n, func(k, v int64) bool { return true }) {
			torn++
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if st := s.Stats(); st.SnapshotBreaks != torn {
		t.Fatalf("SnapshotBreaks = %d but %d scans reported torn cuts — the counter must track final degradations only",
			st.SnapshotBreaks, torn)
	}
	t.Logf("3000 scans under a sustained writer: %d torn verdicts, SnapshotBreaks matches", torn)
}
