package core

import (
	"testing"
	"testing/quick"

	"rma/internal/vmem"
	"rma/internal/workload"
)

// TestRewiredMatchesTwoPassContent: the rewired and two-pass rebalance
// mechanisms must be observationally identical — same content, same
// order, same cards — differing only in copy/swap counts.
func TestRewiredMatchesTwoPassContent(t *testing.T) {
	mk := func(mode RebalanceMode) *Array {
		cfg := testConfig()
		cfg.Rebalance = mode
		cfg.Adaptive = AdaptiveOff
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	rw, tp := mk(RebalanceRewired), mk(RebalanceTwoPass)
	g := workload.NewUniform(77, 1<<24)
	for i := 0; i < 5000; i++ {
		k := g.Next()
		if err := rw.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		if err := tp.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	var a, b []int64
	rw.Scan(func(k, _ int64) bool { a = append(a, k); return true })
	tp.Scan(func(k, _ int64) bool { b = append(b, k); return true })
	if len(a) != len(b) {
		t.Fatalf("sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("content diverges at %d", i)
		}
	}
	// The rewired variant must have performed swaps; the two-pass variant
	// must have performed strictly more element copies.
	if rw.Stats().PageSwaps == 0 {
		t.Fatal("rewired array never swapped a page")
	}
	if tp.Stats().PageSwaps != 0 {
		t.Fatal("two-pass array swapped pages")
	}
	if tp.Stats().ElementCopies <= rw.Stats().ElementCopies {
		t.Fatalf("two-pass copies (%d) should exceed rewired copies (%d)",
			tp.Stats().ElementCopies, rw.Stats().ElementCopies)
	}
}

// TestPoolReuseAcrossResizes: after the first resize, rewired grows must
// recycle pooled physical pages instead of allocating fresh zeroed ones
// every time (the paper's resize benefit).
func TestPoolReuseAcrossResizes(t *testing.T) {
	cfg := testConfig()
	a := mustNew(t, cfg)
	for i := 0; i < 20000; i++ {
		mustInsert(t, a, int64(i), 0)
	}
	if a.Stats().Grows < 3 {
		t.Fatalf("expected several grows, got %d", a.Stats().Grows)
	}
	ks := a.keys.Stats()
	if ks.PoolReuses == 0 {
		t.Fatal("no physical pages were recycled across resizes")
	}
}

// TestAllocFailureDuringRebalanceLeavesArrayConsistent injects a failure
// into the spare-page acquisition of a rewired rebalance and verifies the
// array survives untouched and recovers.
func TestAllocFailureDuringRebalanceLeavesArrayConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive = AdaptiveOff
	a := mustNew(t, cfg)
	for i := 0; i < 500; i++ {
		mustInsert(t, a, int64(i*2), int64(i))
	}
	sizeBefore := a.Size()

	// Make every key allocation fail until reset; insert keys until some
	// insert needs a rebalance/resize page and fails.
	a.keys.InjectAllocFailure(0)
	var failed bool
	k := int64(100001)
	for i := 0; i < 2000; i++ {
		if err := a.Insert(k, 0); err != nil {
			failed = true
			break
		}
		k += 2
		sizeBefore++
	}
	if !failed {
		t.Fatal("no insert failed under allocation-failure injection")
	}
	if a.Size() != sizeBefore {
		t.Fatalf("size drifted across failed insert: %d vs %d", a.Size(), sizeBefore)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("array inconsistent after failed rebalance: %v", err)
	}
	// Recovery: disable injection; the failed insert must now succeed.
	a.keys.InjectAllocFailure(-1)
	mustInsert(t, a, k, 0)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocFailureDuringValsAcquisition covers the second acquisition
// path (keys succeed, values fail).
func TestAllocFailureDuringValsAcquisition(t *testing.T) {
	cfg := testConfig()
	cfg.Adaptive = AdaptiveOff
	a := mustNew(t, cfg)
	for i := 0; i < 500; i++ {
		mustInsert(t, a, int64(i*2), int64(i))
	}
	a.vals.InjectAllocFailure(0)
	failed := false
	size := a.Size()
	for i := 0; i < 2000; i++ {
		if err := a.Insert(int64(200000+i*2), 0); err != nil {
			failed = true
			break
		}
		size++
	}
	if !failed {
		t.Fatal("no failure triggered")
	}
	if a.Size() != size {
		t.Fatalf("size drifted: %d vs %d", a.Size(), size)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if k := a.keys.SparePages(); k > a.keys.NumPages() {
		t.Fatalf("keys spare pool leaked beyond cap: %d spares", k)
	}
	a.vals.InjectAllocFailure(-1)
	mustInsert(t, a, 999999, 0)
}

// TestEvenTargets property: conservation and max spread of one.
func TestEvenTargetsProperty(t *testing.T) {
	f := func(nsegRaw uint8, cntRaw uint16) bool {
		nseg := int(nsegRaw%63) + 1
		cnt := int(cntRaw)
		out := evenTargets(nseg, cnt, make([]int, nseg))
		sum, mn, mx := 0, 1<<30, 0
		for _, v := range out {
			sum += v
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return sum == cnt && mx-mn <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCopySpansProperty: copySpans must be equivalent to concatenating
// sources and slicing into destinations.
func TestCopySpansProperty(t *testing.T) {
	f := func(lens []uint8, dstSplit uint8) bool {
		var src []span
		var flatK, flatV []int64
		x := int64(0)
		for _, l := range lens {
			n := int(l % 17)
			k := make([]int64, n)
			v := make([]int64, n)
			for i := range k {
				k[i] = x
				v[i] = -x
				x++
			}
			src = append(src, span{k, v})
			flatK = append(flatK, k...)
			flatV = append(flatV, v...)
		}
		total := len(flatK)
		// Split destination into two chunks at dstSplit%total.
		cut := 0
		if total > 0 {
			cut = int(dstSplit) % (total + 1)
		}
		d1k, d1v := make([]int64, cut), make([]int64, cut)
		d2k, d2v := make([]int64, total-cut), make([]int64, total-cut)
		copySpans([]span{{d1k, d1v}, {d2k, d2v}}, src)
		for i := 0; i < cut; i++ {
			if d1k[i] != flatK[i] || d1v[i] != flatV[i] {
				return false
			}
		}
		for i := cut; i < total; i++ {
			if d2k[i-cut] != flatK[i] || d2v[i-cut] != flatV[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestComplexityGrowthInsertUniform is the Fig 4 sanity check: the
// per-insert rebalance work under uniform keys must grow sub-linearly
// (amortized O(log^2 N) elements moved per insert).
func TestComplexityGrowthInsertUniform(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentSlots = 32
	cfg.PageSlots = 256
	work := func(n int) float64 {
		a := mustNew(t, cfg)
		g := workload.NewUniform(1, 0)
		for i := 0; i < n; i++ {
			mustInsert(t, a, g.Next(), 0)
		}
		return float64(a.Stats().RebalancedElements+a.Stats().ElementCopies) / float64(n)
	}
	small := work(4000)
	large := work(64000)
	// 16x the data must cost far less than 16x the per-insert work;
	// allow log^2 growth plus slack.
	if large > small*6 {
		t.Fatalf("per-insert work grew from %.1f to %.1f (x%.1f): super-polylog",
			small, large, large/small)
	}
}

// TestGatedPoolMatchesUngated: an epoch gate delays when retired pages
// rejoin the spare pool, but must not change how many it keeps. The
// writer advances the gate after every insert, as the shard layer does,
// and the gated array must end within 1% of the ungated one's footprint
// with its pool inside the bound and no more fresh page allocations.
func TestGatedPoolMatchesUngated(t *testing.T) {
	const n = 1 << 20
	load := func(gated bool) *Array {
		a := mustNew(t, DefaultConfig())
		var g *vmem.EpochGate
		if gated {
			g = vmem.NewEpochGate()
			a.AttachEpochGate(g)
		}
		rng := workload.NewUniform(3, 0)
		for i := 0; i < n; i++ {
			mustInsert(t, a, rng.Next(), int64(i))
			if g != nil && g.LimboPages() > 0 {
				g.TryAdvance()
			}
		}
		return a
	}
	ungated, gated := load(false), load(true)
	if g := gated.Stats().Grows; g < 3 {
		t.Fatalf("only %d grows; the test needs several", g)
	}
	fu, fg := ungated.FootprintBytes(), gated.FootprintBytes()
	t.Logf("bytes/key: ungated %.2f, gated %.2f", float64(fu)/n, float64(fg)/n)
	if d := float64(fg - fu); d > 0.01*float64(fu) || -d > 0.01*float64(fu) {
		t.Errorf("gated footprint %d B, ungated %d B: more than 1%% apart", fg, fu)
	}
	for _, sp := range []struct {
		name      string
		gated, un *vmem.Pages
	}{{"keys", gated.keys, ungated.keys}, {"vals", gated.vals, ungated.vals}} {
		if s, b := sp.gated.SparePages(), sp.gated.NumPages()/8+1; s > b {
			t.Errorf("%s: gated pool holds %d pages, bound %d", sp.name, s, b)
		}
		fg, fu := sp.gated.Stats().FreshAllocs, sp.un.Stats().FreshAllocs
		t.Logf("%s: fresh allocs gated %d, ungated %d", sp.name, fg, fu)
		if fg > fu {
			t.Errorf("%s: gated array allocated %d fresh pages, ungated %d", sp.name, fg, fu)
		}
	}
}

// TestRewiredGrowMapsItsTail: a doubling grow writes every element once
// into newPages acquired pages, swaps in the oldPages that replace
// mapped pages and appends the rest: 2×oldPages swaps over the two
// spaces and newPages acquisitions per space, not newPages swaps plus
// newPages−oldPages placeholder pages. The appended pages are born
// dirty, so a checkpoint after the grow persists every key.
func TestRewiredGrowMapsItsTail(t *testing.T) {
	cfg := smallConfig()
	a, dir := durableArray(t, cfg)
	want := make(map[int64]int64)
	rng := workload.NewUniform(11, 0)
	for i := 0; i < 3000; i++ {
		k := rng.Next()
		mustInsert(t, a, k, k^7)
		want[k] = k ^ 7
	}
	if _, err := a.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	oldPages := a.keys.NumPages()
	swaps := a.Stats().PageSwaps
	before := []vmem.Stats{a.keys.Stats(), a.vals.Stats()}
	if err := a.grow(); err != nil {
		t.Fatal(err)
	}
	newPages := a.keys.NumPages()
	if newPages != 2*oldPages {
		t.Fatalf("grow mapped %d pages from %d; want a doubling", newPages, oldPages)
	}
	if got := a.Stats().PageSwaps - swaps; got != uint64(2*oldPages) {
		t.Errorf("doubling grow made %d page swaps, want 2×%d", got, oldPages)
	}
	for i, sp := range []*vmem.Pages{a.keys, a.vals} {
		s := sp.Stats()
		if got := s.Swaps - before[i].Swaps; got != uint64(oldPages) {
			t.Errorf("space %d: %d swaps, want %d", i, got, oldPages)
		}
		got := s.FreshAllocs + s.PoolReuses - before[i].FreshAllocs - before[i].PoolReuses
		if got != uint64(newPages) {
			t.Errorf("space %d: acquired %d pages, want %d", i, got, newPages)
		}
		for v := oldPages; v < newPages; v++ {
			if !sp.IsDirty(v) {
				t.Fatalf("space %d: appended page %d is not dirty", i, v)
			}
		}
	}
	if _, err := a.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	a.Region().Close()
	b := reopen(t, dir, cfg)
	got := collect(t, b)
	if len(got) != len(want) {
		t.Fatalf("reopened %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: reopened value %d, want %d", k, got[k], v)
		}
	}
}
