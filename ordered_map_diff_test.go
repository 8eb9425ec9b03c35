package rma

import (
	"fmt"
	"slices"
	"testing"

	"rma/internal/workload"
)

// Randomized differential tests: every backend implementing the widened
// OrderedMap surface is driven through mixed insert/delete workloads and
// compared, query by query, against a sorted-slice reference model —
// navigation (Floor/Ceiling), order statistics (Rank/Select/CountRange)
// and all four lazy iterator forms.

// diffVal derives a key's value so duplicate keys carry identical
// values and any occurrence satisfies a value check.
func diffVal(k int64) int64 { return k*7 + 3 }

// refModel is the reference: a sorted multiset of keys.
type refModel struct{ keys []int64 }

func lbSlice(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func ubSlice(a []int64, x int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (m *refModel) insert(k int64) {
	i := ubSlice(m.keys, k)
	m.keys = append(m.keys, 0)
	copy(m.keys[i+1:], m.keys[i:])
	m.keys[i] = k
}

func (m *refModel) delete(k int64) bool {
	i := lbSlice(m.keys, k)
	if i >= len(m.keys) || m.keys[i] != k {
		return false
	}
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	return true
}

// slice returns the model keys in [lo, hi].
func (m *refModel) slice(lo, hi int64) []int64 {
	if lo > hi {
		return nil
	}
	return m.keys[lbSlice(m.keys, lo):ubSlice(m.keys, hi)]
}

// checkQueries verifies the whole query surface of om against the model
// at a set of probe keys.
func checkQueries(t *testing.T, om OrderedMap, m *refModel, probes []int64) {
	t.Helper()
	n := len(m.keys)
	if got := om.Size(); got != n {
		t.Fatalf("Size = %d, want %d", got, n)
	}

	// Min / Max.
	mn, okMn := om.Min()
	mx, okMx := om.Max()
	if okMn != (n > 0) || okMx != (n > 0) {
		t.Fatalf("Min/Max ok = %v/%v with n=%d", okMn, okMx, n)
	}
	if n > 0 && (mn != m.keys[0] || mx != m.keys[n-1]) {
		t.Fatalf("Min/Max = %d/%d, want %d/%d", mn, mx, m.keys[0], m.keys[n-1])
	}

	for _, x := range probes {
		// Find.
		wantIdx := lbSlice(m.keys, x)
		wantFound := wantIdx < n && m.keys[wantIdx] == x
		v, found := om.Find(x)
		if found != wantFound || (found && v != diffVal(x)) {
			t.Fatalf("Find(%d) = (%d,%v), want found=%v", x, v, found, wantFound)
		}

		// Floor.
		fk, fv, fok := om.Floor(x)
		if i := ubSlice(m.keys, x) - 1; i >= 0 {
			if !fok || fk != m.keys[i] || fv != diffVal(m.keys[i]) {
				t.Fatalf("Floor(%d) = (%d,%d,%v), want %d", x, fk, fv, fok, m.keys[i])
			}
		} else if fok {
			t.Fatalf("Floor(%d) = (%d,%d,true), want none", x, fk, fv)
		}

		// Ceiling.
		ck, cv, cok := om.Ceiling(x)
		if i := lbSlice(m.keys, x); i < n {
			if !cok || ck != m.keys[i] || cv != diffVal(m.keys[i]) {
				t.Fatalf("Ceiling(%d) = (%d,%d,%v), want %d", x, ck, cv, cok, m.keys[i])
			}
		} else if cok {
			t.Fatalf("Ceiling(%d) = (%d,%d,true), want none", x, ck, cv)
		}

		// Rank.
		if got, want := om.Rank(x), lbSlice(m.keys, x); got != want {
			t.Fatalf("Rank(%d) = %d, want %d", x, got, want)
		}
	}

	// GetBatch must answer the probe set exactly like per-probe Find
	// (probes arrive unsorted, with duplicates across iterations).
	batch := om.GetBatch(probes, nil)
	if len(batch) != len(probes) {
		t.Fatalf("GetBatch returned %d results for %d probes", len(batch), len(probes))
	}
	for i, x := range probes {
		wantIdx := lbSlice(m.keys, x)
		wantFound := wantIdx < n && m.keys[wantIdx] == x
		if batch[i].OK != wantFound || (wantFound && batch[i].Val != diffVal(x)) {
			t.Fatalf("GetBatch[%d] key %d = (%d,%v), want found=%v",
				i, x, batch[i].Val, batch[i].OK, wantFound)
		}
	}

	// Select over the full index range plus out-of-range probes.
	for _, i := range []int{-1, 0, n / 3, n / 2, n - 1, n} {
		k, v, ok := om.Select(i)
		if i < 0 || i >= n {
			if ok {
				t.Fatalf("Select(%d) ok with n=%d", i, n)
			}
			continue
		}
		if !ok || k != m.keys[i] || v != diffVal(m.keys[i]) {
			t.Fatalf("Select(%d) = (%d,%d,%v), want %d", i, k, v, ok, m.keys[i])
		}
	}

	// CountRange and the iterator forms over probe-derived ranges.
	for i := 0; i+1 < len(probes); i += 2 {
		lo, hi := probes[i], probes[i+1]
		if lo > hi {
			lo, hi = hi, lo
		}
		want := m.slice(lo, hi)
		if got := om.CountRange(lo, hi); got != len(want) {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, got, len(want))
		}
		if got := om.CountRange(hi, lo); lo != hi && got != 0 {
			t.Fatalf("CountRange(%d,%d) = %d, want 0 (inverted)", hi, lo, got)
		}
		checkIterSeq(t, fmt.Sprintf("Range(%d,%d)", lo, hi), om.Range(lo, hi), want, false)
		checkIterSeq(t, fmt.Sprintf("Descend(%d)", hi), om.Descend(hi), m.slice(minInt64, hi), true)
		checkIterSeq(t, fmt.Sprintf("Ascend(%d)", lo), om.Ascend(lo), m.slice(lo, maxInt64), false)
	}
	checkIterSeq(t, "All", om.All(), m.keys, false)

	// Early termination: breaking out of a lazy iterator mid-range.
	stop := len(m.keys) / 2
	seen := 0
	for k, v := range om.All() {
		if k != m.keys[seen] || v != diffVal(k) {
			t.Fatalf("All[%d] = (%d,%d), want key %d", seen, k, v, m.keys[seen])
		}
		seen++
		if seen == stop {
			break
		}
	}
	if stop > 0 && seen != stop {
		t.Fatalf("early-terminated All visited %d, want %d", seen, stop)
	}
}

// checkIterSeq drains a sequence and compares it against want (which is
// ascending; reversed=true checks descending order).
func checkIterSeq(t *testing.T, name string, seq func(func(int64, int64) bool), want []int64, reversed bool) {
	t.Helper()
	i := 0
	for k, v := range seq {
		if i >= len(want) {
			t.Fatalf("%s yielded more than %d elements", name, len(want))
		}
		wk := want[i]
		if reversed {
			wk = want[len(want)-1-i]
		}
		if k != wk || v != diffVal(wk) {
			t.Fatalf("%s[%d] = (%d,%d), want key %d", name, i, k, v, wk)
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%s yielded %d elements, want %d", name, i, len(want))
	}
}

// diffBackend is one backend under differential test. A durable Sharded
// backend also carries the options that recover it: the test ends it
// with Checkpoint → Close → OpenSharded(dir, reopen...) and compares the
// recovered content in full.
type diffBackend struct {
	om     UpdatableMap
	dir    string
	reopen []Option
}

// diffBackends returns the updatable backends under differential test,
// including RMA configurations that exercise resizes and both threshold
// presets at small segment sizes, and every Sharded option combination
// the facade can build: {update-, scan-oriented thresholds} x
// {synchronous, background rebalancing} x {in-memory, durable,
// durable + WAL}. The paper's ablation engines (two-pass, even, other
// indexes, interleaved) are no facade options; internal/core checks them
// against its own oracle (configMatrix, navConfigs).
func diffBackends(t *testing.T) map[string]diffBackend {
	t.Helper()
	mk := func(opts ...Option) diffBackend {
		a, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return diffBackend{om: a}
	}
	geometry := []Option{WithSegmentCapacity(16), WithPageCapacity(64)}
	mkSharded := func(shards int, sample []int64, opts ...Option) *Sharded {
		s, err := NewShardedFromSample(shards, sample, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	// Boundary sample spanning the differential key range, so the
	// sharded backends split the test traffic across all shards.
	sample := make([]int64, 64)
	for i := range sample {
		sample[i] = int64(i) * 4000 / int64(len(sample))
	}
	backends := map[string]diffBackend{
		"rma-default":      mk(geometry...),
		"rma-scanoriented": mk(WithSegmentCapacity(8), WithPageCapacity(32), WithScanOrientedThresholds()),
		"abtree":           {om: NewABTree(16)},
		"art":              {om: NewARTTree(16)},
		"sharded-1":        {om: mkSharded(1, nil, geometry...)},
		"sharded-64":       {om: mkSharded(64, sample, geometry...)},
	}
	for _, thresholds := range []string{"", "scan-"} {
		for _, rebal := range []string{"sync", "async"} {
			for _, store := range []string{"mem", "dur", "wal"} {
				b := diffBackend{reopen: slices.Clone(geometry)}
				if thresholds == "scan-" {
					b.reopen = append(b.reopen, WithScanOrientedThresholds())
				}
				if rebal == "async" {
					b.reopen = append(b.reopen, WithBackgroundRebalancing(2))
				}
				if store != "mem" {
					b.dir = t.TempDir()
					b.reopen = append(b.reopen, WithDurability(b.dir))
				}
				if store == "wal" {
					// The differential stream checks content, not crash
					// safety: let the OS schedule the log's fsyncs.
					b.reopen = append(b.reopen, WithWAL(WALConfig{Fsync: "never"}))
				}
				b.om = mkSharded(5, sample, b.reopen...)
				backends["sharded-"+thresholds+rebal+"-"+store] = b
			}
		}
	}
	return backends
}

func TestOrderedMapDifferential(t *testing.T) {
	const (
		keyRange = 4000 // small enough to produce duplicate keys
		rounds   = 12
		opsPer   = 400
	)
	for name, b := range diffBackends(t) {
		t.Run(name, func(t *testing.T) {
			om := b.om
			rng := workload.NewRNG(77)
			m := &refModel{}
			probesAt := func() []int64 {
				ps := []int64{minInt64, maxInt64, 0, -1, keyRange, keyRange / 2}
				for i := 0; i < 24; i++ {
					ps = append(ps, int64(rng.Uint64n(keyRange))-keyRange/8)
				}
				return ps
			}
			for round := 0; round < rounds; round++ {
				for op := 0; op < opsPer; op++ {
					k := int64(rng.Uint64n(keyRange))
					// Phase-dependent mix: early rounds grow, later
					// rounds shrink, middle rounds churn.
					del := false
					switch {
					case round < 4:
						del = rng.Uint64n(100) < 20
					case round < 8:
						del = rng.Uint64n(100) < 50
					default:
						del = rng.Uint64n(100) < 80
					}
					if del {
						got, err := om.DeleteKey(k)
						if err != nil {
							t.Fatal(err)
						}
						if want := m.delete(k); got != want {
							t.Fatalf("DeleteKey(%d) = %v, want %v", k, got, want)
						}
					} else {
						if err := om.InsertKV(k, diffVal(k)); err != nil {
							t.Fatal(err)
						}
						m.insert(k)
					}
				}
				checkQueries(t, om, m, probesAt())
				if a, ok := om.(*Array); ok {
					if err := a.Validate(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				if s, ok := om.(*Sharded); ok {
					if err := s.Validate(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
			}
			if b.dir == "" {
				return
			}
			s := om.(*Sharded)
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := OpenSharded(b.dir, b.reopen...)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if err := r.Validate(); err != nil {
				t.Fatalf("recovered map: %v", err)
			}
			checkQueries(t, r, m, probesAt())
		})
	}
}

// TestOrderedMapDifferentialStatic drives the immutable backends (Dense,
// StaticIndexed) built from snapshots of the same reference model.
func TestOrderedMapDifferentialStatic(t *testing.T) {
	rng := workload.NewRNG(99)
	for _, n := range []int{0, 1, 5, 127, 128, 129, 1000, 5000} {
		m := &refModel{}
		for i := 0; i < n; i++ {
			m.insert(int64(rng.Uint64n(2000)))
		}
		vals := make([]int64, n)
		for i, k := range m.keys {
			vals[i] = diffVal(k)
		}
		probes := []int64{minInt64, maxInt64, -5, 0, 999, 2000}
		for i := 0; i < 20; i++ {
			probes = append(probes, int64(rng.Uint64n(2200))-100)
		}
		backends := map[string]OrderedMap{
			"dense":              NewDense(m.keys, vals),
			"staticindexed-b128": NewStaticIndexed(m.keys, vals, 128),
			"staticindexed-b4":   NewStaticIndexed(m.keys, vals, 4),
		}
		for name, om := range backends {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				checkQueries(t, om, m, probes)
			})
		}
	}
}

// TestCursorSeekDifferential checks the cursor's SeekGE repositioning
// and Remaining bookkeeping against the model.
func TestCursorSeekDifferential(t *testing.T) {
	a, err := New(WithSegmentCapacity(16), WithPageCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(5)
	m := &refModel{}
	for i := 0; i < 3000; i++ {
		k := int64(rng.Uint64n(10000))
		if err := a.Insert(k, diffVal(k)); err != nil {
			t.Fatal(err)
		}
		m.insert(k)
	}
	c := a.NewCursor(minInt64, maxInt64)
	for trial := 0; trial < 50; trial++ {
		x := int64(rng.Uint64n(11000)) - 500
		c.SeekGE(x)
		want := m.keys[lbSlice(m.keys, x):]
		if got := c.Remaining(); got != len(want) {
			t.Fatalf("Remaining after SeekGE(%d) = %d, want %d", x, got, len(want))
		}
		for j := 0; j < 5 && j < len(want); j++ {
			if !c.Next() {
				t.Fatalf("Next exhausted after SeekGE(%d) at step %d", x, j)
			}
			if c.Key() != want[j] || c.Value() != diffVal(want[j]) {
				t.Fatalf("after SeekGE(%d) step %d: (%d,%d), want key %d",
					x, j, c.Key(), c.Value(), want[j])
			}
		}
	}
	// A bounded cursor's Remaining never counts past its upper bound.
	c = a.NewCursor(1000, 2000)
	if got, want := c.Remaining(), len(m.slice(1000, 2000)); got != want {
		t.Fatalf("bounded Remaining = %d, want %d", got, want)
	}
	// Seeking past the bound leaves nothing remaining.
	c.SeekGE(5000)
	if got := c.Remaining(); got != 0 {
		t.Fatalf("Remaining after SeekGE past bound = %d, want 0", got)
	}
	if c.Next() {
		t.Fatal("Next after SeekGE past bound")
	}
	// An inverted range is empty.
	c = a.NewCursor(2000, 1000)
	if c.Remaining() != 0 || c.Next() {
		t.Fatal("inverted range not empty")
	}
}
