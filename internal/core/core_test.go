package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rma/internal/calibrator"
	"rma/internal/workload"
)

// testConfig returns a small-page configuration so tests exercise
// rebalances, rewiring and resizes with modest element counts.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SegmentSlots = 8
	cfg.PageSlots = 32
	return cfg
}

// TestStatsAddCoversEveryField: Add must fold every counter, so a field
// added to Stats without a line in Add fails here. Counters sum;
// MaxWindowSegments takes the maximum.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one, sum Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanUint() {
			f.SetUint(1)
		} else {
			f.SetInt(1)
		}
	}
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if f := got.Field(i); f.CanUint() {
			if f.Uint() != 2 {
				t.Errorf("Add: %s = %d after adding 1 twice, want 2", name, f.Uint())
			}
		} else if f.Int() != 1 {
			t.Errorf("Add: %s = %d after adding 1 twice, want the maximum 1", name, f.Int())
		}
	}
}

// configMatrix enumerates named engine configurations covering every
// design axis; differential tests run all of them.
func configMatrix() map[string]Config {
	m := map[string]Config{}

	rma := testConfig()
	m["rma-default"] = rma

	tw := testConfig()
	tw.Rebalance = RebalanceTwoPass
	m["rma-twopass"] = tw

	even := testConfig()
	even.Adaptive = AdaptiveOff
	m["rma-even"] = even

	dyn := testConfig()
	dyn.Index = IndexDynamic
	m["rma-dynamic-index"] = dyn

	st := testConfig()
	st.Thresholds = calibrator.ScanOriented()
	m["rma-scan-thresholds"] = st

	baseline := BaselineConfig()
	baseline.PageSlots = 32
	baseline.SegmentSlots = 8
	m["tpma-baseline"] = baseline

	inter := testConfig()
	inter.Layout = LayoutInterleaved
	inter.Rebalance = RebalanceTwoPass
	inter.Adaptive = AdaptiveOff
	m["tpma-clustered-index"] = inter

	apma := BaselineConfig()
	apma.PageSlots = 32
	apma.SegmentSlots = 8
	apma.Adaptive = AdaptiveAPMA
	m["apma"] = apma

	logseg := testConfig()
	logseg.Sizing = SizingLogCap
	m["rma-logcap"] = logseg

	bigB := testConfig()
	bigB.SegmentSlots = 16
	bigB.PageSlots = 32
	m["rma-b16"] = bigB

	return m
}

// oracle is a reference sorted multiset.
type oracle struct{ ps []pair }

func (o *oracle) insert(k, v int64) {
	i := sort.Search(len(o.ps), func(i int) bool { return o.ps[i].k > k })
	o.ps = append(o.ps, pair{})
	copy(o.ps[i+1:], o.ps[i:])
	o.ps[i] = pair{k, v}
}

func (o *oracle) delete(k int64) bool {
	i := sort.Search(len(o.ps), func(i int) bool { return o.ps[i].k >= k })
	if i < len(o.ps) && o.ps[i].k == k {
		o.ps = append(o.ps[:i], o.ps[i+1:]...)
		return true
	}
	return false
}

func (o *oracle) contains(k int64) bool {
	i := sort.Search(len(o.ps), func(i int) bool { return o.ps[i].k >= k })
	return i < len(o.ps) && o.ps[i].k == k
}

func (o *oracle) sumRange(lo, hi int64) (int, int64) {
	cnt, sum := 0, int64(0)
	for _, p := range o.ps {
		if p.k >= lo && p.k <= hi {
			cnt++
			sum += p.v
		}
	}
	return cnt, sum
}

func mustNew(t *testing.T, cfg Config) *Array {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func mustInsert(t *testing.T, a *Array, k, v int64) {
	t.Helper()
	if err := a.Insert(k, v); err != nil {
		t.Fatalf("Insert(%d): %v", k, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.SegmentSlots = 100 // not a power of two
	if bad.Validate() == nil {
		t.Fatal("expected error for non-power-of-two B")
	}
	bad = DefaultConfig()
	bad.PageSlots = 64 // < 2*B
	if bad.Validate() == nil {
		t.Fatal("expected error for PageSlots < 2B")
	}
	bad = DefaultConfig()
	bad.Adaptive = AdaptiveAPMA
	bad.Thresholds.ForceShrinkFill = 0.5
	if bad.Validate() == nil {
		t.Fatal("expected error for APMA + deletions")
	}
}

func TestInsertFindSmall(t *testing.T) {
	for name, cfg := range configMatrix() {
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			keys := []int64{10, 5, 30, 20, 25, 1, 100, 50, 7, 3}
			for _, k := range keys {
				mustInsert(t, a, k, k*2)
			}
			if a.Size() != len(keys) {
				t.Fatalf("size %d, want %d", a.Size(), len(keys))
			}
			for _, k := range keys {
				v, ok := a.Find(k)
				if !ok || v != k*2 {
					t.Fatalf("Find(%d) = (%d,%v)", k, v, ok)
				}
			}
			if _, ok := a.Find(999); ok {
				t.Fatal("found absent key")
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInsertGrowsThroughResizes(t *testing.T) {
	for name, cfg := range configMatrix() {
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			g := workload.NewUniform(42, 1<<30)
			const n = 3000
			for i := 0; i < n; i++ {
				mustInsert(t, a, g.Next(), int64(i))
			}
			if a.Size() != n {
				t.Fatalf("size %d, want %d", a.Size(), n)
			}
			if a.Stats().Resizes == 0 {
				t.Fatal("expected at least one resize")
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSequentialInsertion(t *testing.T) {
	// The hammering worst case: strictly ascending keys.
	for name, cfg := range configMatrix() {
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			const n = 2000
			for i := 0; i < n; i++ {
				mustInsert(t, a, int64(i), int64(i))
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			cnt, _ := a.SumAll()
			if cnt != n {
				t.Fatalf("SumAll count %d, want %d", cnt, n)
			}
		})
	}
}

func TestDescendingInsertion(t *testing.T) {
	for name, cfg := range configMatrix() {
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			const n = 1500
			for i := n - 1; i >= 0; i-- {
				mustInsert(t, a, int64(i), int64(i))
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDuplicateKeys(t *testing.T) {
	for name, cfg := range configMatrix() {
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			for i := 0; i < 500; i++ {
				mustInsert(t, a, 7, int64(i))
			}
			mustInsert(t, a, 3, 30)
			mustInsert(t, a, 9, 90)
			if a.Size() != 502 {
				t.Fatalf("size %d", a.Size())
			}
			cnt, _ := a.Sum(7, 7)
			if cnt != 500 {
				t.Fatalf("dup count %d, want 500", cnt)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDeleteBasics(t *testing.T) {
	for name, cfg := range configMatrix() {
		if cfg.Adaptive == AdaptiveAPMA {
			continue // APMA has no deletion support (as in the paper)
		}
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			for i := 0; i < 100; i++ {
				mustInsert(t, a, int64(i), int64(i*10))
			}
			for i := 0; i < 100; i += 2 {
				ok, err := a.Delete(int64(i))
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("Delete(%d) missed", i)
				}
			}
			if a.Size() != 50 {
				t.Fatalf("size %d", a.Size())
			}
			for i := 0; i < 100; i++ {
				_, ok := a.Find(int64(i))
				if want := i%2 == 1; ok != want {
					t.Fatalf("Find(%d) = %v, want %v", i, ok, want)
				}
			}
			if ok, _ := a.Delete(424242); ok {
				t.Fatal("deleted absent key")
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDeleteToEmptyAndShrink(t *testing.T) {
	for name, cfg := range configMatrix() {
		if cfg.Adaptive == AdaptiveAPMA {
			continue
		}
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			const n = 2000
			for i := 0; i < n; i++ {
				mustInsert(t, a, int64(i), int64(i))
			}
			grownCap := a.Capacity()
			for i := 0; i < n; i++ {
				if ok, err := a.Delete(int64(i)); !ok || err != nil {
					t.Fatalf("Delete(%d) = %v,%v", i, ok, err)
				}
			}
			if a.Size() != 0 {
				t.Fatalf("size %d after deleting all", a.Size())
			}
			if a.Capacity() >= grownCap {
				t.Fatalf("array did not shrink: %d >= %d", a.Capacity(), grownCap)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			// The array must remain fully usable.
			mustInsert(t, a, 5, 50)
			if v, ok := a.Find(5); !ok || v != 50 {
				t.Fatal("array unusable after emptying")
			}
		})
	}
}

// TestDifferentialRandomOps runs a randomized insert/delete/find/sum
// workload against the oracle on every configuration.
func TestDifferentialRandomOps(t *testing.T) {
	for name, cfg := range configMatrix() {
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			o := &oracle{}
			rng := workload.NewRNG(uint64(len(name)) * 7777)
			allowDelete := cfg.Adaptive != AdaptiveAPMA
			const ops = 6000
			for i := 0; i < ops; i++ {
				k := int64(rng.Uint64n(800)) // small key space forces duplicates
				// Values are a function of the key: Delete removes an
				// unspecified occurrence among duplicates, so
				// occurrence-specific values would diverge from the
				// oracle without any bug.
				v := k ^ 0x5bd1
				switch {
				case allowDelete && rng.Uint64n(3) == 0 && len(o.ps) > 0:
					got, err := a.Delete(k)
					if err != nil {
						t.Fatal(err)
					}
					want := o.delete(k)
					if got != want {
						t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
					}
				default:
					mustInsert(t, a, k, v)
					o.insert(k, v)
				}
				if a.Size() != len(o.ps) {
					t.Fatalf("op %d: size %d, want %d", i, a.Size(), len(o.ps))
				}
				if i%500 == 499 {
					if err := a.Validate(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					lo := int64(rng.Uint64n(800))
					hi := lo + int64(rng.Uint64n(200))
					gotC, gotS := a.Sum(lo, hi)
					wantC, wantS := o.sumRange(lo, hi)
					if gotC != wantC || gotS != wantS {
						t.Fatalf("op %d: Sum(%d,%d) = (%d,%d), want (%d,%d)", i, lo, hi, gotC, gotS, wantC, wantS)
					}
				}
			}
			// Full-content comparison at the end.
			var got []pair
			a.Scan(func(k, v int64) bool { got = append(got, pair{k, v}); return true })
			if len(got) != len(o.ps) {
				t.Fatalf("scan yielded %d elements, want %d", len(got), len(o.ps))
			}
			for i := range got {
				if got[i].k != o.ps[i].k {
					t.Fatalf("key order mismatch at %d: %d vs %d", i, got[i].k, o.ps[i].k)
				}
			}
		})
	}
}

func TestMinMax(t *testing.T) {
	a := mustNew(t, testConfig())
	if _, ok := a.Min(); ok {
		t.Fatal("Min on empty")
	}
	if _, ok := a.Max(); ok {
		t.Fatal("Max on empty")
	}
	for _, k := range []int64{50, 10, 90, 30} {
		mustInsert(t, a, k, k)
	}
	if mn, _ := a.Min(); mn != 10 {
		t.Fatalf("Min = %d", mn)
	}
	if mx, _ := a.Max(); mx != 90 {
		t.Fatalf("Max = %d", mx)
	}
}

func TestExtremeKeys(t *testing.T) {
	for name, cfg := range configMatrix() {
		if cfg.Adaptive == AdaptiveAPMA {
			continue
		}
		t.Run(name, func(t *testing.T) {
			a := mustNew(t, cfg)
			keys := []int64{minInt64, maxInt64, 0, -1, 1, maxInt64 - 1, minInt64 + 1}
			for i, k := range keys {
				mustInsert(t, a, k, int64(i))
			}
			for i, k := range keys {
				v, ok := a.Find(k)
				if !ok || v != int64(i) {
					t.Fatalf("Find(%d) = (%d,%v)", k, v, ok)
				}
			}
			// Push enough extra elements to force rebalances around the
			// sentinel-looking keys.
			for i := 0; i < 300; i++ {
				mustInsert(t, a, int64(i*3-450), 0)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if _, ok := a.Find(k); !ok {
					t.Fatalf("lost key %d after rebalances", k)
				}
			}
		})
	}
}

func TestStatsAccounting(t *testing.T) {
	a := mustNew(t, testConfig())
	for i := 0; i < 2000; i++ {
		mustInsert(t, a, int64(i), 0)
	}
	s := a.Stats()
	if s.Inserts != 2000 {
		t.Fatalf("Inserts = %d", s.Inserts)
	}
	if s.Rebalances == 0 || s.RebalancedElements == 0 {
		t.Fatal("rebalances not counted")
	}
	if s.ElementCopies == 0 {
		t.Fatal("copies not counted")
	}
	if s.Grows == 0 {
		t.Fatal("grows not counted")
	}
	// The rewired configuration must actually swap pages.
	if s.PageSwaps == 0 {
		t.Fatal("rewired config performed no page swaps")
	}
}

func TestFootprintGrowsWithData(t *testing.T) {
	a := mustNew(t, testConfig())
	before := a.FootprintBytes()
	for i := 0; i < 5000; i++ {
		mustInsert(t, a, int64(i), 0)
	}
	if after := a.FootprintBytes(); after <= before {
		t.Fatalf("footprint did not grow: %d -> %d", before, after)
	}
}

func TestDensityWithinRootThresholds(t *testing.T) {
	// After any long insert-only run, the global density must sit within
	// the root thresholds (the complexity guarantee's precondition).
	for _, preset := range []struct {
		name string
		th   calibrator.Thresholds
	}{{"ut", calibrator.UpdateOriented()}, {"st", calibrator.ScanOriented()}} {
		t.Run(preset.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Thresholds = preset.th
			a := mustNew(t, cfg)
			g := workload.NewUniform(3, 0)
			for i := 0; i < 20000; i++ {
				mustInsert(t, a, g.Next(), 0)
			}
			// Between resizes the density may drift above tauH up to
			// roughly the threshold of the level below the root (the
			// walk stops at the first satisfying window), so allow the
			// interpolation step plus rounding.
			d := a.Density()
			if d > preset.th.TauH+0.06 {
				t.Fatalf("density %v exceeds tauH %v by more than the sub-root band", d, preset.th.TauH)
			}
			if d < 0.2 {
				t.Fatalf("density %v suspiciously low", d)
			}
		})
	}
}

func TestLayoutClusteringParity(t *testing.T) {
	// Verify the alternating packing: after a rebalance, even segments
	// pack right, odd segments pack left, forming contiguous pair runs.
	cfg := testConfig()
	cfg.Adaptive = AdaptiveOff
	a := mustNew(t, cfg)
	for i := 0; i < 200; i++ {
		mustInsert(t, a, int64(i), int64(i))
	}
	for s := 0; s < a.NumSegments(); s++ {
		c := int(a.cards[s])
		if c == 0 {
			continue
		}
		lo, hi := a.runBounds(s)
		if s&1 == 0 && hi != a.segSlots {
			t.Fatalf("even segment %d not right-packed: [%d,%d)", s, lo, hi)
		}
		if s&1 == 1 && lo != 0 {
			t.Fatalf("odd segment %d not left-packed: [%d,%d)", s, lo, hi)
		}
	}
}

func TestString(t *testing.T) {
	a := mustNew(t, testConfig())
	if s := a.String(); s == "" {
		t.Fatal("empty String()")
	}
	_ = fmt.Sprintf("%v", a)
}
