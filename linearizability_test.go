package rma

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"rma/internal/workload"
)

// Linearizability checking for the lock-free read path.
//
// N goroutines issue concurrent Put/Delete/Get/SnapshotScan operations
// against one Sharded map running with lock-free reads and background
// rebalancing, recording every operation as an event with invocation
// and response timestamps drawn from one global atomic tick. After the
// run, a Wing & Gong-style checker searches for a linearization: a
// total order of the events, consistent with real time (an operation
// whose response preceded another's invocation must come first), under
// which every recorded response matches the sequential ordered-map
// semantics.
//
// Two properties of the map make the search tractable without losing
// generality:
//
//   - Writers only ever store diffVal(k) under key k, so the sequential
//     state reduces to a per-key occurrence count (multiset semantics):
//     Put increments it, a Delete that returned true decrements it, a
//     Delete that returned false requires it to be zero, and a Get
//     requires it to be nonzero exactly when it found the key. Any
//     value mismatch is a hard failure before the checker even runs.
//   - Point operations on different keys commute under that
//     specification, so the global history is linearizable iff each
//     per-key subhistory is — the checker runs per key. Consistent
//     snapshot scans (SnapshotScan returning true guarantees a witness
//     instant inside the scan's [invoke, response] interval) decompose
//     the same way: one read event per key in the scanned window,
//     present or absent, all sharing the scan's interval.
//
// Within a per-key history the count after any prefix is determined by
// the recorded responses alone, so the checker memoizes on the set of
// linearized events; real-time order further splits each history into
// independently checkable segments at every point where all earlier
// responses precede all later invocations, bounding the search to the
// actual overlap window.
//
// The workload is seeded (override with RMA_LIN_SEED) and scales with
// RMA_TORTURE_SCALE. On failure the offending per-key history is
// logged, and also written to $RMA_LIN_DIR/lin-key-<k>.txt when
// RMA_LIN_DIR is set — the nightly CI job uploads that directory as an
// artifact.

const (
	linPut = iota
	linDel
	linGet
)

// linEvent is one completed operation in the recorded history.
type linEvent struct {
	kind     uint8
	key      int64
	out      bool // Del: existed; Get: found
	inv, ret uint64
}

func (e linEvent) String() string {
	k := [...]string{"Put", "Del", "Get"}[e.kind]
	return fmt.Sprintf("%s(%d)=%v [%d,%d]", k, e.key, e.out, e.inv, e.ret)
}

// applyLin advances the per-key count by one event, reporting whether
// the event's recorded response is legal in state c.
func applyLin(e linEvent, c int) (int, bool) {
	switch e.kind {
	case linPut:
		return c + 1, true
	case linDel:
		if e.out {
			if c > 0 {
				return c - 1, true
			}
			return c, false
		}
		return c, c == 0
	default: // linGet
		return c, e.out == (c > 0)
	}
}

// linSegment searches for a linearization of one overlap segment
// starting from count c0, returning the (response-determined) final
// count and whether an order exists. len(evs) must be <= 63.
func linSegment(evs []linEvent, c0 int) (int, bool) {
	n := len(evs)
	full := uint64(1)<<n - 1
	// The count after linearizing a set is determined by the responses
	// in it, so a failed mask never needs revisiting.
	dead := make(map[uint64]struct{})
	var dfs func(mask uint64, c int) bool
	dfs = func(mask uint64, c int) bool {
		if mask == full {
			return true
		}
		if _, seen := dead[mask]; seen {
			return false
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			// evs[i] may linearize next only if no other remaining
			// event strictly precedes it in real time.
			minimal := true
			for j := 0; j < n && minimal; j++ {
				if j != i && mask&(1<<j) == 0 && evs[j].ret < evs[i].inv {
					minimal = false
				}
			}
			if !minimal {
				continue
			}
			if c2, ok := applyLin(evs[i], c); ok && dfs(mask|1<<i, c2) {
				return true
			}
		}
		dead[mask] = struct{}{}
		return false
	}
	cEnd := c0
	for _, e := range evs {
		if e.kind == linPut {
			cEnd++
		} else if e.kind == linDel && e.out {
			cEnd--
		}
	}
	return cEnd, dfs(0, c0)
}

// checkKeyLinearizable verifies one key's subhistory: sorts by
// invocation, splits at real-time cut points, and searches each
// segment. Returns the final count and an error describing the first
// unlinearizable segment.
func checkKeyLinearizable(key int64, evs []linEvent) (int, error) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].inv < evs[j].inv })
	c := 0
	start := 0
	maxRet := uint64(0)
	for i := 0; i <= len(evs); i++ {
		if i < len(evs) && (i == start || evs[i].inv <= maxRet) {
			if evs[i].ret > maxRet {
				maxRet = evs[i].ret
			}
			continue
		}
		seg := evs[start:i]
		if len(seg) > 63 {
			return 0, fmt.Errorf("key %d: overlap segment of %d events exceeds the checker's bitmask; retune the workload", key, len(seg))
		}
		c2, ok := linSegment(seg, c)
		if !ok {
			return 0, fmt.Errorf("key %d: no linearization for segment of %d events from count %d", key, len(seg), c)
		}
		c = c2
		if i < len(evs) {
			start = i
			maxRet = evs[i].ret
		}
	}
	return c, nil
}

// dumpLinHistory logs a failing per-key history and writes it to
// RMA_LIN_DIR when set, so CI can upload it as an artifact.
func dumpLinHistory(t *testing.T, seed uint64, key int64, evs []linEvent, verdict error) {
	t.Helper()
	t.Errorf("seed %d: %v", seed, verdict)
	for _, e := range evs {
		t.Logf("  %s", e)
	}
	dir := os.Getenv("RMA_LIN_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("RMA_LIN_DIR: %v", err)
		return
	}
	var b []byte
	b = fmt.Appendf(b, "seed=%d\n%v\n", seed, verdict)
	for _, e := range evs {
		b = fmt.Appendf(b, "%s\n", e)
	}
	path := filepath.Join(dir, fmt.Sprintf("lin-key-%d.txt", key))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Logf("RMA_LIN_DIR: %v", err)
	}
}

func linSeed() uint64 {
	if s := os.Getenv("RMA_LIN_SEED"); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			return n
		}
	}
	return 0xB1A5
}

const (
	linG        = 6
	linKeySpace = 1024
	linScanW    = 16 // snapshot-scan window width in keys
)

func TestShardedLinearizable(t *testing.T) {
	seed := linSeed()
	opsPerG := 4_000 * tortureScale()

	sample := make([]int64, 128)
	for i := range sample {
		sample[i] = int64(i) * linKeySpace / int64(len(sample))
	}
	s, err := NewShardedFromSample(6, sample,
		WithSegmentCapacity(16), WithPageCapacity(64),
		WithBackgroundRebalancing(2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()

	var tick atomic.Uint64
	histories := make([][]linEvent, linG)
	var wg sync.WaitGroup
	for g := 0; g < linG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := workload.NewRNG(seed + uint64(g)*0x9E3779B97F4A7C15)
			evs := make([]linEvent, 0, opsPerG+opsPerG/16*linScanW)
			for op := 0; op < opsPerG; op++ {
				k := int64(rng.Uint64n(linKeySpace))
				switch p := rng.Uint64n(100); {
				case p < 40: // put
					inv := tick.Add(1)
					err := s.Insert(k, diffVal(k))
					ret := tick.Add(1)
					if err != nil {
						t.Error(err)
						return
					}
					evs = append(evs, linEvent{linPut, k, true, inv, ret})
				case p < 65: // delete
					inv := tick.Add(1)
					ok, err := s.Delete(k)
					ret := tick.Add(1)
					if err != nil {
						t.Error(err)
						return
					}
					evs = append(evs, linEvent{linDel, k, ok, inv, ret})
				case p < 95: // point read
					inv := tick.Add(1)
					v, ok := s.Find(k)
					ret := tick.Add(1)
					if ok && v != diffVal(k) {
						t.Errorf("g%d: Find(%d) = %d, want %d", g, k, v, diffVal(k))
						return
					}
					evs = append(evs, linEvent{linGet, k, ok, inv, ret})
				default: // consistent snapshot scan over a small window
					lo := int64(rng.Uint64n(linKeySpace - linScanW))
					hi := lo + linScanW - 1
					seen := [linScanW]bool{}
					for attempt := 0; attempt < 8; attempt++ {
						seen = [linScanW]bool{}
						bad := false
						prev := int64(minInt64)
						inv := tick.Add(1)
						consistent := s.SnapshotScan(lo, hi, func(k, v int64) bool {
							if k < lo || k > hi || k < prev || v != diffVal(k) {
								bad = true
								return false
							}
							prev = k
							seen[k-lo] = true
							return true
						})
						ret := tick.Add(1)
						if bad {
							t.Errorf("g%d: SnapshotScan(%d,%d) yielded an out-of-range, unordered or corrupt element", g, lo, hi)
							return
						}
						if !consistent {
							continue
						}
						// A consistent cut: every key in the window was
						// atomically observed present or absent.
						for i := int64(0); i < linScanW; i++ {
							evs = append(evs, linEvent{linGet, lo + i, seen[i], inv, ret})
						}
						break
					}
				}
			}
			histories[g] = evs
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Merge the per-goroutine histories and check key by key.
	perKey := make(map[int64][]linEvent, linKeySpace)
	for _, evs := range histories {
		for _, e := range evs {
			perKey[e.key] = append(perKey[e.key], e)
		}
	}
	finals := make(map[int64]int, len(perKey))
	for k, evs := range perKey {
		c, err := checkKeyLinearizable(k, evs)
		if err != nil {
			dumpLinHistory(t, seed, k, evs, err)
			continue
		}
		finals[k] = c
	}
	if t.Failed() {
		t.FailNow()
	}

	// The linearized final counts are response-determined; the quiescent
	// map must agree exactly.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for k, c := range finals {
		if got := s.CountRange(k, k); got != c {
			t.Errorf("seed %d: key %d: final count %d, linearized history says %d", seed, k, got, c)
		}
	}
	st := s.Stats()
	if st.LockFreeReads == 0 {
		t.Error("the history never exercised the lock-free read path")
	}
	t.Logf("checked %d keys, %d events; lock-free reads %d, retries %d, snapshot breaks %d",
		len(perKey), func() (n int) {
			for _, evs := range histories {
				n += len(evs)
			}
			return
		}(), st.LockFreeReads, st.ReadRetries, st.SnapshotBreaks)
}

// TestLinCheckerRejectsBadHistory pins the checker itself: a history
// that real time forbids must be rejected, and legal reorderings must
// be accepted — otherwise a green linearizability run proves nothing.
func TestLinCheckerRejectsBadHistory(t *testing.T) {
	// Get=true strictly after a successful delete of the only copy.
	bad := []linEvent{
		{linPut, 1, true, 1, 2},
		{linDel, 1, true, 3, 4},
		{linGet, 1, true, 5, 6},
	}
	if _, err := checkKeyLinearizable(1, bad); err == nil {
		t.Fatal("checker accepted a read of a deleted key")
	}
	// The same read overlapping the delete is fine: it may linearize
	// before it.
	good := []linEvent{
		{linPut, 1, true, 1, 2},
		{linDel, 1, true, 3, 6},
		{linGet, 1, true, 4, 5},
	}
	if _, err := checkKeyLinearizable(1, good); err != nil {
		t.Fatal(err)
	}
	// Delete=false while a copy provably exists must be rejected...
	bad2 := []linEvent{
		{linPut, 7, true, 1, 2},
		{linDel, 7, false, 3, 4},
	}
	if _, err := checkKeyLinearizable(7, bad2); err == nil {
		t.Fatal("checker accepted a failed delete of a present key")
	}
	// ...unless a concurrent successful delete can take the copy first.
	good2 := []linEvent{
		{linPut, 7, true, 1, 2},
		{linDel, 7, true, 3, 6},
		{linDel, 7, false, 4, 5},
	}
	if c, err := checkKeyLinearizable(7, good2); err != nil || c != 0 {
		t.Fatalf("count %d, err %v; want 0, nil", c, err)
	}
	// Segmented histories carry state across cuts.
	long := []linEvent{
		{linPut, 3, true, 1, 2},
		{linPut, 3, true, 10, 11},
		{linDel, 3, true, 20, 21},
		{linGet, 3, true, 30, 31},
		{linDel, 3, true, 40, 41},
		{linGet, 3, false, 50, 51},
	}
	if c, err := checkKeyLinearizable(3, long); err != nil || c != 0 {
		t.Fatalf("count %d, err %v; want 0, nil", c, err)
	}
}
