// Package exp is the experiment harness: one runner per figure of the
// paper's evaluation (Figs 1, 10, 11, 12, 13, 14), each printing the same
// series the paper plots, at a configurable scale.
//
// The paper runs 2^30 elements on a dual-socket Xeon; the harness defaults
// to 2^20 so a full reproduction finishes in minutes. Shapes (who wins, by
// what factor, where crossovers fall) are the reproduction target —
// absolute numbers are not, since scale and hardware differ from the
// paper's (PAPER.md).
package exp

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rma/internal/abtree"
	"rma/internal/art"
	"rma/internal/calibrator"
	"rma/internal/core"
	"rma/internal/workload"
)

// Params controls an experiment run.
type Params struct {
	N    int       // final cardinality (paper: 1G = 2^30)
	Seed uint64    // base RNG seed
	Out  io.Writer // results sink (TSV)
}

// Figure is one runner of the paper's evaluation, named after the figure
// (and panel) it reproduces.
type Figure struct {
	Name string
	Run  func(Params)
}

// Figures lists every figure runner in the paper's order. It is the one
// list rmabench selects from and the smoke test covers.
var Figures = []Figure{
	{"fig01a", Fig01a},
	{"fig01b", Fig01b},
	{"fig01c", Fig01c},
	{"fig10", Fig10},
	{"fig11a", Fig11a},
	{"fig11b", Fig11b},
	{"fig12", Fig12},
	{"fig13a", Fig13a},
	{"fig13b", Fig13b},
	{"fig14", Fig14},
}

func (p Params) printf(format string, args ...any) {
	fmt.Fprintf(p.Out, format, args...)
}

// sprintf is a local alias to keep figure runners terse.
func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// mops converts an element count and duration to million elements/sec.
func mops(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e6
}

// timeIt measures f.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// --- systems under test -------------------------------------------------------

// updMap is the minimal update/scan surface the experiments drive.
type updMap interface {
	InsertKV(k, v int64)
	DeleteKey(k int64) bool
	FindKV(k int64) (int64, bool)
	SumRange(lo, hi int64) (int, int64)
	SumEverything() (int, int64)
	Bytes() int64
	Count() int
}

// coreSUT adapts internal/core.Array.
type coreSUT struct{ a *core.Array }

func (s coreSUT) InsertKV(k, v int64) {
	if err := s.a.Insert(k, v); err != nil {
		panic(err)
	}
}
func (s coreSUT) DeleteKey(k int64) bool {
	ok, err := s.a.Delete(k)
	if err != nil {
		panic(err)
	}
	return ok
}
func (s coreSUT) FindKV(k int64) (int64, bool)       { return s.a.Find(k) }
func (s coreSUT) SumRange(lo, hi int64) (int, int64) { return s.a.Sum(lo, hi) }
func (s coreSUT) SumEverything() (int, int64)        { return s.a.SumAll() }
func (s coreSUT) Bytes() int64                       { return s.a.FootprintBytes() }
func (s coreSUT) Count() int                         { return s.a.Size() }

// abSUT adapts the (a,b)-tree.
type abSUT struct{ t *abtree.Tree }

func (s abSUT) InsertKV(k, v int64)                { s.t.Insert(k, v) }
func (s abSUT) DeleteKey(k int64) bool             { return s.t.Delete(k) }
func (s abSUT) FindKV(k int64) (int64, bool)       { return s.t.Find(k) }
func (s abSUT) SumRange(lo, hi int64) (int, int64) { return s.t.Sum(lo, hi) }
func (s abSUT) SumEverything() (int, int64)        { return s.t.SumAll() }
func (s abSUT) Bytes() int64                       { return s.t.FootprintBytes() }
func (s abSUT) Count() int                         { return s.t.Size() }

// artSUT adapts the ART-indexed tree.
type artSUT struct{ t *art.Tree }

func (s artSUT) InsertKV(k, v int64)                { s.t.Insert(k, v) }
func (s artSUT) DeleteKey(k int64) bool             { return s.t.Delete(k) }
func (s artSUT) FindKV(k int64) (int64, bool)       { return s.t.Find(k) }
func (s artSUT) SumRange(lo, hi int64) (int, int64) { return s.t.Sum(lo, hi) }
func (s artSUT) SumEverything() (int, int64)        { return s.t.SumAll() }
func (s artSUT) Bytes() int64                       { return s.t.FootprintBytes() }
func (s artSUT) Count() int                         { return s.t.Size() }

// mustCore builds a core array or panics (configs are static).
func mustCore(cfg core.Config) coreSUT {
	a, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return coreSUT{a}
}

// RMAConfig returns the paper's RMA at segment size b.
func RMAConfig(b int) core.Config {
	cfg := core.DefaultConfig()
	cfg.SegmentSlots = b
	if cfg.PageSlots < 2*b {
		cfg.PageSlots = 2 * b
	}
	return cfg
}

// RelatedWorkConfigs returns the TPMA configuration stand-ins for the
// prior PMA implementations of Fig 1a: each is the baseline TPMA with
// other density thresholds or a fixed segment size, not the original
// code.
func RelatedWorkConfigs() []struct {
	Name string
	Cfg  core.Config
} {
	baseline := core.BaselineConfig()

	pm14 := baseline
	pm14.Thresholds = calibrator.Thresholds{Rho1: 0.1, RhoH: 0.3, TauH: 0.75, Tau1: 0.9}

	kls17 := baseline
	kls17.Sizing = core.SizingFixed
	kls17.SegmentSlots = 32

	drf12 := baseline
	drf12.Sizing = core.SizingFixed
	drf12.SegmentSlots = 16

	slh17 := baseline
	slh17.Thresholds = calibrator.Thresholds{Rho1: 0.08, RhoH: 0.3, TauH: 0.7, Tau1: 0.92}

	return []struct {
		Name string
		Cfg  core.Config
	}{
		{"baseline", baseline},
		{"pm14-like", pm14},
		{"kls17-like", kls17},
		{"drf12-like", drf12},
		{"slh17-like", slh17},
	}
}

// --- common workload drivers ---------------------------------------------------

// insertPattern drives n insertions from the pattern into m, returning
// the throughput in million inserts/sec.
func insertPattern(m updMap, p workload.Pattern, seed uint64, n int) float64 {
	g := workload.NewPattern(p, seed)
	keys := workload.Keys(g, n)
	d := timeIt(func() {
		for _, k := range keys {
			m.InsertKV(k, workload.ValueFor(k))
		}
	})
	return mops(n, d)
}

// scanThroughput runs random contiguous scans, each covering `frac` of
// the structure's elements, until roughly 2*N elements have been
// scanned; it returns million elements/sec. This is the paper's Fig 1
// scan measurement (random contiguous scans of 1% of the final data
// structure). sortedKeys is a sorted copy of the stored keys, used to
// translate element fractions into key ranges.
func scanThroughput(m updMap, sortedKeys []int64, seed uint64, frac float64) float64 {
	n := len(sortedKeys)
	if n == 0 {
		return 0
	}
	cnt := int(float64(n) * frac)
	if cnt < 1 {
		cnt = 1
	}
	rng := workload.NewRNG(seed)
	scanned := 0
	target := 2 * n
	d := timeIt(func() {
		for scanned < target {
			i := int(rng.Uint64n(uint64(n - cnt + 1)))
			lo := sortedKeys[i]
			hi := sortedKeys[i+cnt-1]
			c, s := m.SumRange(lo, hi)
			sink += s
			scanned += c + 1
		}
	})
	return mops(scanned, d)
}

// fullScanThroughput measures one full scan in million elements/sec.
func fullScanThroughput(m updMap, reps int) float64 {
	n := m.Count()
	best := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		d := timeIt(func() {
			c, s := m.SumEverything()
			sink += s + int64(c)
		})
		if d < best {
			best = d
		}
	}
	return mops(n, best)
}

// lookupThroughput measures random point lookups of existing keys.
func lookupThroughput(m updMap, keys []int64, lookups int, seed uint64) float64 {
	rng := workload.NewRNG(seed)
	d := timeIt(func() {
		for i := 0; i < lookups; i++ {
			k := keys[rng.Uint64n(uint64(len(keys)))]
			v, _ := m.FindKV(k)
			sink += v
		}
	})
	return mops(lookups, d)
}

// sink defeats dead-code elimination of measured loops.
var sink int64

// Sink exposes the accumulated sink so callers can keep it alive.
func Sink() int64 { return sink }

// sortedPairs draws n pairs and sorts them (for bulk loads).
func sortedPairs(g workload.Generator, n int) ([]int64, []int64) {
	keys := workload.Keys(g, n)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]int64, n)
	for i, k := range keys {
		vals[i] = workload.ValueFor(k)
	}
	return keys, vals
}

// alphaLabels is the Zipf sweep of Figs 11 and 13b: uniform plus
// alpha in {0.5, 1, 1.5, 2, 2.5, 3}.
var alphaSweep = []float64{0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0} // 0 = uniform

func alphaLabel(a float64) string {
	if a == 0 {
		return "uniform"
	}
	return fmt.Sprintf("zipf-%.1f", a)
}

func alphaGen(a float64, seed uint64) workload.Generator {
	if a == 0 {
		return workload.NewUniform(seed, 0)
	}
	return workload.NewZipf(seed, a, workload.ZipfRange, true)
}
