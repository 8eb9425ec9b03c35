// Benchmarks: one per figure of the paper's evaluation. Each benchmark
// exercises the figure's main axis at a laptop scale (fixtures of 2^20
// elements); the full series, sweeps and tables are regenerated by
// cmd/rmabench (`rmabench -exp all`).
//
// Run: go test -bench=. -benchmem
package rma

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"rma/internal/abtree"
	"rma/internal/art"
	"rma/internal/calibrator"
	"rma/internal/core"
	"rma/internal/exp"
	"rma/internal/workload"
)

const benchN = 1 << 20

var benchSink int64

// benchKeys returns the shared uniform key set.
var benchKeys = sync.OnceValue(func() []int64 {
	return workload.Keys(workload.NewUniform(42, 0), benchN)
})

var benchSorted = sync.OnceValue(func() []int64 {
	s := append([]int64(nil), benchKeys()...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
})

// mustCoreArr builds a core array for a config.
func mustCoreArr(b *testing.B, cfg core.Config) *core.Array {
	b.Helper()
	a, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// insertBench times b.N inserts drawn from gen into a fresh structure.
func insertBench(b *testing.B, gen workload.Generator, ins func(k, v int64)) {
	keys := workload.Keys(gen, b.N)
	b.ResetTimer()
	for _, k := range keys {
		ins(k, k)
	}
}

// --- Fig 1a: TPMA baseline vs prior-PMA configuration stand-ins -------------

func BenchmarkFig01aInsertUniform(b *testing.B) {
	for _, rw := range exp.RelatedWorkConfigs() {
		cfg := rw.Cfg
		b.Run(rw.Name, func(b *testing.B) {
			a := mustCoreArr(b, cfg)
			insertBench(b, workload.NewUniform(1, 0), func(k, v int64) {
				if err := a.Insert(k, v); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// --- Fig 1b: (a,b)-trees at varying leaf capacity ----------------------------

func BenchmarkFig01bInsertUniform(b *testing.B) {
	for _, leaf := range []int{64, 128, 256, 512} {
		leaf := leaf
		b.Run(sprintfB("abtree-B%d", leaf), func(b *testing.B) {
			t := abtree.New(leaf)
			insertBench(b, workload.NewUniform(1, 0), t.Insert)
		})
	}
}

// --- Fig 1c: the final contributions ------------------------------------------

func BenchmarkFig01cInsertUniform(b *testing.B) {
	for _, B := range []int{128, 256} {
		B := B
		b.Run(sprintfB("rma-B%d", B), func(b *testing.B) {
			a := mustCoreArr(b, exp.RMAConfig(B))
			insertBench(b, workload.NewUniform(1, 0), func(k, v int64) {
				if err := a.Insert(k, v); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// backendFixtures holds every backend loaded with the shared uniform
// key set, driven purely through the OrderedMap interface — the Fig 1
// scan fixtures and the iterator/navigation benchmarks all pull from
// here.
var backendFixtures = sync.OnceValue(func() map[string]OrderedMap {
	out := map[string]OrderedMap{}

	mustLoad := func(m UpdatableMap) OrderedMap {
		for _, k := range benchKeys() {
			if err := m.InsertKV(k, k); err != nil {
				panic(err)
			}
		}
		return m
	}
	tpma, err := NewTPMA()
	if err != nil {
		panic(err)
	}
	rmaA, err := New()
	if err != nil {
		panic(err)
	}
	out["baseline"] = mustLoad(tpma)
	out["rma-B128"] = mustLoad(rmaA)
	out["abtree-B256"] = mustLoad(NewABTree(256))
	out["art-B256"] = mustLoad(NewARTTree(256))

	s := benchSorted()
	vals := make([]int64, len(s))
	copy(vals, s)
	out["dense"] = NewDense(s, vals)
	out["staticindexed"] = NewStaticIndexed(s, vals, 128)
	return out
})

// benchBackends is the fixed iteration order over the fixtures.
var benchBackends = []string{"baseline", "abtree-B256", "art-B256", "rma-B128", "staticindexed", "dense"}

// BenchmarkFig01Scan1Pct runs 1%-of-structure contiguous scans (the Fig 1
// scan column) against each structure, through the interface.
func BenchmarkFig01Scan1Pct(b *testing.B) {
	fx := backendFixtures()
	s := benchSorted()
	cnt := len(s) / 100
	for _, name := range benchBackends {
		m := fx[name]
		b.Run(name, func(b *testing.B) {
			rng := workload.NewRNG(9)
			b.ResetTimer()
			scanned := 0
			for i := 0; i < b.N; i++ {
				p := int(rng.Uint64n(uint64(len(s) - cnt)))
				c, sum := m.Sum(s[p], s[p+cnt-1])
				benchSink += sum
				scanned += c
			}
			b.ReportMetric(float64(scanned)/b.Elapsed().Seconds()/1e6, "Melts/s")
		})
	}
}

// --- OrderedMap surface: iterators, navigation, order statistics ---------------

// BenchmarkIterAll drains the lazy full-range iterator of each backend.
func BenchmarkIterAll(b *testing.B) {
	fx := backendFixtures()
	for _, name := range benchBackends {
		m := fx[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var sum int64
				for _, v := range m.All() {
					sum += v
				}
				benchSink += sum
			}
			reportScan(b, m.Size())
		})
	}
}

// BenchmarkIterRange1Pct iterates random 1% ranges lazily.
func BenchmarkIterRange1Pct(b *testing.B) {
	fx := backendFixtures()
	s := benchSorted()
	cnt := len(s) / 100
	for _, name := range benchBackends {
		m := fx[name]
		b.Run(name, func(b *testing.B) {
			rng := workload.NewRNG(11)
			b.ResetTimer()
			scanned := 0
			for i := 0; i < b.N; i++ {
				p := int(rng.Uint64n(uint64(len(s) - cnt)))
				for _, v := range m.Range(s[p], s[p+cnt-1]) {
					benchSink += v
					scanned++
				}
			}
			b.ReportMetric(float64(scanned)/b.Elapsed().Seconds()/1e6, "Melts/s")
		})
	}
}

// BenchmarkIterDescend1Pct iterates random 1% ranges in reverse.
func BenchmarkIterDescend1Pct(b *testing.B) {
	fx := backendFixtures()
	s := benchSorted()
	cnt := len(s) / 100
	for _, name := range benchBackends {
		m := fx[name]
		b.Run(name, func(b *testing.B) {
			rng := workload.NewRNG(12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := int(rng.Uint64n(uint64(len(s) - cnt)))
				lo := s[p]
				left := cnt
				for k, v := range m.Descend(s[p+cnt-1]) {
					benchSink += v
					if left--; left == 0 || k < lo {
						break
					}
				}
			}
		})
	}
}

// BenchmarkNavFloorCeiling probes random keys.
func BenchmarkNavFloorCeiling(b *testing.B) {
	fx := backendFixtures()
	keys := benchKeys()
	for _, name := range benchBackends {
		m := fx[name]
		b.Run(name, func(b *testing.B) {
			rng := workload.NewRNG(13)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := keys[rng.Uint64n(uint64(len(keys)))]
				k1, _, _ := m.Floor(x)
				k2, _, _ := m.Ceiling(x)
				benchSink += k1 + k2
			}
		})
	}
}

// BenchmarkNavRankSelect measures the order-statistic pair. The RMA and
// the static columns answer in O(log n); the unaugmented trees hop their
// leaf chains in O(n/B) — this benchmark quantifies that gap.
func BenchmarkNavRankSelect(b *testing.B) {
	fx := backendFixtures()
	keys := benchKeys()
	for _, name := range benchBackends {
		m := fx[name]
		n := m.Size()
		b.Run(name, func(b *testing.B) {
			rng := workload.NewRNG(14)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += int64(m.Rank(keys[rng.Uint64n(uint64(len(keys)))]))
				k, _, _ := m.Select(int(rng.Uint64n(uint64(n))))
				benchSink += k
			}
		})
	}
}

// BenchmarkCursorMergeJoin joins the RMA fixture with itself through two
// lazy cursors over random 1% ranges.
func BenchmarkCursorMergeJoin(b *testing.B) {
	a := backendFixtures()["rma-B128"].(*Array)
	s := benchSorted()
	cnt := len(s) / 100
	rng := workload.NewRNG(15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := int(rng.Uint64n(uint64(len(s) - cnt)))
		q := int(rng.Uint64n(uint64(len(s) - cnt)))
		lc := a.NewCursor(s[p], s[p+cnt-1])
		rc := a.NewCursor(s[q], s[q+cnt-1])
		matches := 0
		lOK, rOK := lc.Next(), rc.Next()
		for lOK && rOK {
			switch {
			case lc.Key() < rc.Key():
				lOK = lc.Next()
			case lc.Key() > rc.Key():
				rOK = rc.Next()
			default:
				matches++
				lOK, rOK = lc.Next(), rc.Next()
			}
		}
		benchSink += int64(matches)
	}
}

// --- Fig 10: ART vs RMA across node/segment sizes -----------------------------

func BenchmarkFig10Insert(b *testing.B) {
	for _, B := range []int{32, 128, 512, 2048} {
		B := B
		b.Run(sprintfB("art-B%d", B), func(b *testing.B) {
			t := art.New(B)
			insertBench(b, workload.NewUniform(1, 0), t.Insert)
		})
		b.Run(sprintfB("rma-B%d", B), func(b *testing.B) {
			a := mustCoreArr(b, exp.RMAConfig(B))
			insertBench(b, workload.NewUniform(1, 0), func(k, v int64) {
				if err := a.Insert(k, v); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// fig10Fixtures holds loaded ART trees and RMAs per B for lookup/scan.
var fig10Fixtures = sync.OnceValue(func() (out struct {
	art map[int]*art.Tree
	rma map[int]*core.Array
}) {
	out.art = map[int]*art.Tree{}
	out.rma = map[int]*core.Array{}
	for _, B := range []int{128, 2048} {
		t := art.New(B)
		a, err := core.New(exp.RMAConfig(B))
		if err != nil {
			panic(err)
		}
		for _, k := range benchKeys() {
			t.Insert(k, k)
			if err := a.Insert(k, k); err != nil {
				panic(err)
			}
		}
		out.art[B] = t
		out.rma[B] = a
	}
	return out
})

func BenchmarkFig10Lookup(b *testing.B) {
	fx := fig10Fixtures()
	keys := benchKeys()
	for _, B := range []int{128, 2048} {
		B := B
		b.Run(sprintfB("art-B%d", B), func(b *testing.B) {
			rng := workload.NewRNG(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := fx.art[B].Find(keys[rng.Uint64n(uint64(len(keys)))])
				benchSink += v
			}
		})
		b.Run(sprintfB("rma-B%d", B), func(b *testing.B) {
			rng := workload.NewRNG(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := fx.rma[B].Find(keys[rng.Uint64n(uint64(len(keys)))])
				benchSink += v
			}
		})
	}
}

// BenchmarkGetBatch compares the batched read path against per-key Find
// over identical probe sets (one op = one probed key), on random and
// sorted orders: the amortized descents plus the page-ordered probe
// access are what the batch surface buys.
func BenchmarkGetBatch(b *testing.B) {
	fx := fig10Fixtures()
	keys := benchKeys()
	a := fx.rma[128]
	rng := workload.NewRNG(9)
	probes := make([]int64, 1024)
	for i := range probes {
		probes[i] = keys[rng.Uint64n(uint64(len(keys)))]
	}
	sorted := append([]int64(nil), probes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	for _, set := range []struct {
		name   string
		probes []int64
	}{{"random", probes}, {"sorted", sorted}} {
		set := set
		b.Run("find-"+set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, _ := a.Find(set.probes[i%len(set.probes)])
				benchSink += v
			}
		})
		b.Run("batch-"+set.name, func(b *testing.B) {
			var out []core.Lookup
			for i := 0; i < b.N; i += len(set.probes) {
				out = a.FindBatch(set.probes, out)
				benchSink += out[0].Val
			}
		})
	}
}

func BenchmarkFig10FullScan(b *testing.B) {
	fx := fig10Fixtures()
	for _, B := range []int{128, 2048} {
		B := B
		b.Run(sprintfB("art-B%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, s := fx.art[B].SumAll()
				benchSink += s + int64(c)
			}
			reportScan(b, benchN)
		})
		b.Run(sprintfB("rma-B%d", B), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, s := fx.rma[B].SumAll()
				benchSink += s + int64(c)
			}
			reportScan(b, benchN)
		})
	}
	b.Run("dense", func(b *testing.B) {
		s := benchSorted()
		for i := 0; i < b.N; i++ {
			var sum int64
			for _, v := range s {
				sum += v
			}
			benchSink += sum
		}
		reportScan(b, benchN)
	})
}

func reportScan(b *testing.B, n int) {
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melts/s")
}

// --- Fig 11: adaptive rebalancing under skew -----------------------------------

func BenchmarkFig11aInsertSkew(b *testing.B) {
	policies := []struct {
		name string
		mk   func() func(k, v int64)
	}{
		{"art", func() func(k, v int64) { t := art.New(128); return t.Insert }},
		{"even", func() func(k, v int64) {
			cfg := exp.RMAConfig(128)
			cfg.Adaptive = core.AdaptiveOff
			a, _ := core.New(cfg)
			return func(k, v int64) { _ = a.Insert(k, v) }
		}},
		{"adaptive", func() func(k, v int64) {
			a, _ := core.New(exp.RMAConfig(128))
			return func(k, v int64) { _ = a.Insert(k, v) }
		}},
		{"apma", func() func(k, v int64) {
			cfg := core.BaselineConfig()
			cfg.Adaptive = core.AdaptiveAPMA
			a, _ := core.New(cfg)
			return func(k, v int64) { _ = a.Insert(k, v) }
		}},
	}
	for _, alpha := range []float64{0.5, 1.5, 2.5} {
		for _, pol := range policies {
			alpha, pol := alpha, pol
			b.Run(sprintfB("%s-a%.1f", pol.name, alpha), func(b *testing.B) {
				ins := pol.mk()
				insertBench(b, workload.NewZipf(7, alpha, workload.ZipfRange, true), ins)
			})
		}
	}
}

// BenchmarkFig11bMixed alternates one skewed insert and one skewed delete
// per iteration pair on a preloaded structure (the constant-cardinality
// mixed workload).
func BenchmarkFig11bMixed(b *testing.B) {
	mk := map[string]func() (func(k, v int64), func(k int64)){
		"adaptive": func() (func(k, v int64), func(k int64)) {
			a, _ := core.New(exp.RMAConfig(128))
			return func(k, v int64) { _ = a.Insert(k, v) }, func(k int64) { _, _ = a.Delete(k) }
		},
		"even": func() (func(k, v int64), func(k int64)) {
			cfg := exp.RMAConfig(128)
			cfg.Adaptive = core.AdaptiveOff
			a, _ := core.New(cfg)
			return func(k, v int64) { _ = a.Insert(k, v) }, func(k int64) { _, _ = a.Delete(k) }
		},
		"art": func() (func(k, v int64), func(k int64)) {
			t := art.New(128)
			return t.Insert, func(k int64) { t.Delete(k) }
		},
	}
	for _, name := range []string{"art", "even", "adaptive"} {
		name := name
		b.Run(name+"-a1.5", func(b *testing.B) {
			ins, del := mk[name]()
			pre := workload.NewZipf(1, 1.5, workload.ZipfRange, true)
			for i := 0; i < benchN/4; i++ {
				ins(pre.Next(), 0)
			}
			gi := workload.NewZipf(2, 1.5, workload.ZipfRange, true)
			gd := workload.NewZipf(3, 1.5, workload.ZipfRange, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ins(gi.Next(), 0)
				del(gd.Next())
			}
		})
	}
}

// --- Fig 12: update-oriented vs scan-oriented thresholds ------------------------

func BenchmarkFig12Insert(b *testing.B) {
	presets := map[string]calibrator.Thresholds{
		"ut": calibrator.UpdateOriented(),
		"st": calibrator.ScanOriented(),
	}
	for _, pattern := range []string{"uniform", "sequential"} {
		for _, name := range []string{"ut", "st"} {
			pattern, name := pattern, name
			b.Run(name+"-"+pattern, func(b *testing.B) {
				cfg := exp.RMAConfig(128)
				cfg.Thresholds = presets[name]
				a := mustCoreArr(b, cfg)
				var g workload.Generator = workload.NewUniform(1, 0)
				if pattern == "sequential" {
					g = workload.NewSequential(0, 1)
				}
				insertBench(b, g, func(k, v int64) {
					if err := a.Insert(k, v); err != nil {
						b.Fatal(err)
					}
				})
			})
		}
	}
}

func BenchmarkFig12FullScan(b *testing.B) {
	presets := map[string]calibrator.Thresholds{
		"ut": calibrator.UpdateOriented(),
		"st": calibrator.ScanOriented(),
	}
	for _, name := range []string{"ut", "st"} {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := exp.RMAConfig(128)
			cfg.Thresholds = presets[name]
			a := mustCoreArr(b, cfg)
			for _, k := range benchKeys() {
				if err := a.Insert(k, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.FootprintBytes())/float64(benchN), "bytes/elt")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, s := a.SumAll()
				benchSink += s + int64(c)
			}
			reportScan(b, benchN)
		})
	}
}

// --- Fig 13a: (a,b)-tree aging ---------------------------------------------------

func BenchmarkFig13aAgedTreeScan(b *testing.B) {
	for _, churn := range []int{0, 5, 50} { // % of elements updated
		churn := churn
		b.Run(sprintfB("churn-%dpct", churn), func(b *testing.B) {
			t := abtree.New(128)
			s := benchSorted()
			vals := make([]int64, len(s))
			t.BulkLoad(s, vals)
			rng := workload.NewUniform(5, 0)
			updates := benchN * churn / 100
			for i := 0; i < updates; i++ {
				k := rng.Next()
				t.Insert(k, 0)
				t.Delete(s[int(rng.Next())%len(s)])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, sum := t.SumAll()
				benchSink += sum + int64(c)
			}
			reportScan(b, t.Size())
		})
	}
}

// --- Fig 13b: bulk loading schemes ------------------------------------------------

func BenchmarkFig13bBulkLoad(b *testing.B) {
	const batch = 4096
	type loader struct {
		name string
		mk   func() func(keys, vals []int64) error
	}
	loaders := []loader{
		{"single-inserts", func() func([]int64, []int64) error {
			a, _ := core.New(exp.RMAConfig(128))
			preloadCore(a, benchN/4)
			return func(keys, vals []int64) error {
				for i := range keys {
					if err := a.Insert(keys[i], vals[i]); err != nil {
						return err
					}
				}
				return nil
			}
		}},
		{"bottomup-rwr", func() func([]int64, []int64) error {
			a, _ := core.New(exp.RMAConfig(128))
			preloadCore(a, benchN/4)
			return func(keys, vals []int64) error {
				return a.BulkLoad(core.Batch{Keys: keys, Vals: vals})
			}
		}},
		{"bottomup-norwr", func() func([]int64, []int64) error {
			cfg := exp.RMAConfig(128)
			cfg.Rebalance = core.RebalanceTwoPass
			a, _ := core.New(cfg)
			preloadCore(a, benchN/4)
			return func(keys, vals []int64) error {
				return a.BulkLoad(core.Batch{Keys: keys, Vals: vals})
			}
		}},
		{"topdown", func() func([]int64, []int64) error {
			cfg := exp.RMAConfig(128)
			cfg.Rebalance = core.RebalanceTwoPass
			a, _ := core.New(cfg)
			preloadCore(a, benchN/4)
			return func(keys, vals []int64) error {
				return a.BulkLoadTopDown(core.Batch{Keys: keys, Vals: vals})
			}
		}},
	}
	for _, ld := range loaders {
		ld := ld
		b.Run(ld.name+"-a1.5", func(b *testing.B) {
			load := ld.mk()
			g := workload.NewZipf(11, 1.5, workload.ZipfRange, true)
			vals := make([]int64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := load(workload.Keys(g, batch), vals); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds()/1e6, "Mins/s")
		})
	}
}

func preloadCore(a *core.Array, n int) {
	g := workload.NewUniform(77, 0)
	for i := 0; i < n; i++ {
		if err := a.Insert(g.Next(), 0); err != nil {
			panic(err)
		}
	}
}

// --- Fig 14: cumulative feature contributions ---------------------------------------

func BenchmarkFig14FeatureChain(b *testing.B) {
	for _, step := range exp.FeatureChain() {
		cfg := step.Cfg
		b.Run(step.Name+"-seq", func(b *testing.B) {
			a := mustCoreArr(b, cfg)
			insertBench(b, workload.NewSequential(0, 1), func(k, v int64) {
				if err := a.Insert(k, v); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run(step.Name+"-uniform", func(b *testing.B) {
			a := mustCoreArr(b, cfg)
			insertBench(b, workload.NewUniform(1, 0), func(k, v int64) {
				if err := a.Insert(k, v); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func sprintfB(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
