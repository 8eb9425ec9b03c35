package core

import (
	"testing"

	"rma/internal/vmem"
	"rma/internal/workload"
)

// Hot-path regression tests: the steady-state write path must not
// allocate, and the interleaved resize reader must stay linear. See
// PERFORMANCE.md for the invariants these tests pin.

// TestTargetsScratchReuses pins the satellite fix: targetsScratch's doc
// comment always promised reuse, but the seed implementation allocated a
// fresh slice per call.
func TestTargetsScratchReuses(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1 := a.targetsScratch(8)
	t1[0] = 42
	t2 := a.targetsScratch(8)
	if &t1[0] != &t2[0] {
		t.Fatal("targetsScratch allocated a fresh buffer for an equal-size request")
	}
	t3 := a.targetsScratch(4)
	if &t1[0] != &t3[0] {
		t.Fatal("targetsScratch allocated a fresh buffer for a smaller request")
	}
	if n := len(a.targetsScratch(16)); n != 16 {
		t.Fatalf("targetsScratch(16) has len %d", n)
	}
}

// TestInsertRebalanceAllocationFree proves the acceptance criterion: a
// steady-state Insert that triggers a (non-resizing) window rebalance
// performs zero heap allocations on the clustered layout, in both
// rebalance modes. The gated row advances an epoch gate after every
// insert, as the shard layer does, so retired pages pass through limbo
// into the bounded spare pool on the measured path.
func TestInsertRebalanceAllocationFree(t *testing.T) {
	for _, mode := range []struct {
		name  string
		m     RebalanceMode
		gated bool
	}{{"rewired", RebalanceRewired, false}, {"twopass", RebalanceTwoPass, false}, {"rewired-gated", RebalanceRewired, true}} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := testConfig() // B=8, 32-slot pages: windows >= 4 segments rewire
			cfg.Adaptive = AdaptiveOff
			cfg.Rebalance = mode.m
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var gate *vmem.EpochGate
			if mode.gated {
				gate = vmem.NewEpochGate()
				a.AttachEpochGate(gate)
			}
			insert := func(k, v int64) {
				if err := a.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				if gate != nil && gate.LimboPages() > 0 {
					gate.TryAdvance()
				}
			}

			// Reach a steady state: enough elements that rebalances and
			// resizes have warmed every scratch buffer and the spare
			// pool, stopping just after a grow so the measured inserts
			// have maximal headroom before the next resize.
			rng := workload.NewUniform(7, 0)
			for i := 0; i < 6000; i++ {
				insert(rng.Next(), int64(i))
			}
			for grows := a.Stats().Grows; a.Stats().Grows == grows; {
				insert(rng.Next(), 1)
			}
			// Fill to 80% of the root threshold: dense enough that
			// segment overflows (hence rebalances) fire regularly during
			// the measured window, with ample headroom before the next
			// resize.
			_, tauRoot := a.cal.At(a.cal.Height())
			for float64(a.Size()) < 0.8*tauRoot*float64(a.Capacity()) {
				insert(rng.Next(), 1)
			}
			headroom := int(tauRoot*float64(a.Capacity())) - a.Size()
			const perRun, runs = 64, 5
			if need := perRun * (runs + 2); headroom < need {
				t.Fatalf("test needs %d insert headroom, have %d (retune the build phase)", need, headroom)
			}

			before := a.Stats()
			allocs := testing.AllocsPerRun(runs, func() {
				for i := 0; i < perRun; i++ {
					insert(rng.Next(), 1)
				}
			})
			after := a.Stats()
			if after.Resizes != before.Resizes {
				t.Fatalf("a resize fired during the measured window (%d -> %d); retune the test",
					before.Resizes, after.Resizes)
			}
			if after.Rebalances == before.Rebalances {
				t.Fatalf("no rebalance fired during %d measured inserts; the test proves nothing", perRun*(runs+1))
			}
			if allocs != 0 {
				t.Errorf("steady-state insert with rebalances: %.2f allocs/run, want 0 (%d rebalances measured)",
					allocs, after.Rebalances-before.Rebalances)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAdaptiveInsertAllocationFree pins the ROADMAP open item this PR
// closes: adaptive mark processing (Detector.Marks, marksToIntervals,
// the adaptive recursion's interval splits, APMA's marked flags) used
// to allocate on every adaptive rebalance. A steady-state insert under
// a hammered (sequential) pattern must now be allocation-free while
// adaptive rebalances demonstrably fire.
func TestAdaptiveInsertAllocationFree(t *testing.T) {
	for _, pol := range []struct {
		name string
		p    AdaptivePolicy
	}{{"rma", AdaptiveRMA}, {"apma", AdaptiveAPMA}} {
		t.Run(pol.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Adaptive = pol.p
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Sequential ascending inserts: the hammering pattern the
			// Detector is built to recognize, so rebalances take the
			// adaptive path with pair-granular marks.
			key := int64(0)
			ins := func() {
				if err := a.Insert(key, key); err != nil {
					t.Fatal(err)
				}
				key += 2
			}
			for i := 0; i < 6000; i++ {
				ins()
			}
			for grows := a.Stats().Grows; a.Stats().Grows == grows; {
				ins()
			}
			_, tauRoot := a.cal.At(a.cal.Height())
			for float64(a.Size()) < 0.8*tauRoot*float64(a.Capacity()) {
				ins()
			}
			headroom := int(tauRoot*float64(a.Capacity())) - a.Size()
			const perRun, runs = 64, 5
			if need := perRun * (runs + 2); headroom < need {
				t.Fatalf("test needs %d insert headroom, have %d (retune the build phase)", need, headroom)
			}

			before := a.Stats()
			allocs := testing.AllocsPerRun(runs, func() {
				for i := 0; i < perRun; i++ {
					ins()
				}
			})
			after := a.Stats()
			if after.Resizes != before.Resizes {
				t.Fatalf("a resize fired during the measured window (%d -> %d); retune the test",
					before.Resizes, after.Resizes)
			}
			if after.AdaptiveRebalances == before.AdaptiveRebalances {
				t.Fatalf("no adaptive rebalance fired during %d measured inserts; the test proves nothing",
					perRun*(runs+1))
			}
			if allocs != 0 {
				t.Errorf("steady-state insert with adaptive rebalances: %.2f allocs/run, want 0 (%d adaptive rebalances measured)",
					allocs, after.AdaptiveRebalances-before.AdaptiveRebalances)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestInterleavedResizeLinearSlotScans pins the mergedReader fix: during
// an interleaved resize the reader advances a slot cursor word-parallel,
// covering each slot of the old capacity at most once. The seed
// implementation called elemKey/elemVal per element — an O(B) rescan
// from the segment base per element, O(B²) per segment — which on this
// counter would have registered ~B/2 slots per element instead of ~1/d.
func TestInterleavedResizeLinearSlotScans(t *testing.T) {
	cfg := testConfig()
	cfg.Layout = LayoutInterleaved
	cfg.Rebalance = RebalanceTwoPass
	cfg.Adaptive = AdaptiveOff
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewUniform(11, 0)

	// Settle past the first few resizes, then watch exactly one.
	for i := 0; i < 2000; i++ {
		if err := a.Insert(rng.Next(), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	oldCap := a.Capacity()
	grows := a.Stats().Grows
	scans0 := a.Stats().SlotScans
	for a.Stats().Grows == grows {
		if err := a.Insert(rng.Next(), 1); err != nil {
			t.Fatal(err)
		}
	}
	delta := a.Stats().SlotScans - scans0
	if delta == 0 {
		t.Fatal("resize did not advance SlotScans; the linearity guard is dead")
	}
	if delta > uint64(oldCap) {
		t.Errorf("interleaved resize covered %d slots for an old capacity of %d: reader is super-linear",
			delta, oldCap)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWalkerSeekAllocationFree pins the walker buffer cache: on the
// interleaved layout each segment visit compacts into an O(B) scratch
// pair, and before the one-slot cache on Array every NewWalker call
// (one per IterAscend, one per seek) paid that allocation anew. After
// one warm-up walk, seek-and-scan must allocate nothing.
func TestWalkerSeekAllocationFree(t *testing.T) {
	cfg := testConfig()
	cfg.Layout = LayoutInterleaved
	cfg.Adaptive = AdaptiveOff
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewUniform(11, 0)
	keys := make([]int64, 0, 4096)
	for i := 0; i < 4096; i++ {
		k := rng.Next()
		keys = append(keys, k)
		if err := a.Insert(k, int64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Warm the cache: the first walk allocates the compaction pair.
	for range a.IterAscend(keys[0], keys[0]) {
	}

	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		lo := keys[i%len(keys)]
		i++
		w := a.NewWalker(lo, maxInt64)
		for j := 0; j < 20; j++ {
			if _, _, ok := w.Next(); !ok {
				break
			}
		}
		w.Release()
	})
	if allocs != 0 {
		t.Fatalf("walker seek-and-scan allocated %.1f times per run; want 0", allocs)
	}

	// A full range-over-func pass, including an early break, must also
	// stay allocation-free... except the iter.Seq2 closure itself, which
	// Go allocates per IterAscend call; assert the walker adds nothing
	// beyond that fixed cost.
	base := testing.AllocsPerRun(200, func() {
		for range a.IterAscend(minInt64, maxInt64) {
			break
		}
	})
	if base > 2 {
		t.Fatalf("IterAscend early break allocated %.1f times per run; want <= 2 (closure wrappers only)", base)
	}
}
