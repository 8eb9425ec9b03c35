package core

import (
	"testing"

	"rma/internal/workload"
)

// Differential tests for the optimistic read view: ReadFind, ReadFloor
// and ReadCeiling must agree exactly with their locked counterparts on
// a quiescent clustered array across every index kind, keep
// agreeing across rebalances and resizes (view republication), and
// fail closed — valid=false, never garbage — when handed a stale view.

func readpathConfigs() map[string]Config {
	small := func(c Config) Config {
		c.SegmentSlots = 8
		c.PageSlots = 32
		return c
	}
	st := small(DefaultConfig())
	st.Index = IndexStatic
	dyn := small(DefaultConfig())
	dyn.Index = IndexDynamic
	return map[string]Config{
		"clustered-eytzinger": small(DefaultConfig()),
		"clustered-static":    st,
		"clustered-dynamic":   dyn,
	}
}

func TestReadPathDifferential(t *testing.T) {
	for name, cfg := range readpathConfigs() {
		t.Run(name, func(t *testing.T) {
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := workload.NewRNG(42)
			keys := make(map[int64]bool)
			for i := 0; i < 5_000; i++ {
				k := int64(rng.Uint64n(16_384))
				if rng.Uint64n(100) < 25 && len(keys) > 0 {
					if _, err := a.Delete(k); err != nil {
						t.Fatal(err)
					}
					delete(keys, k)
				} else {
					if err := a.Insert(k, k*3+1); err != nil {
						t.Fatal(err)
					}
					keys[k] = true
				}
				if i%500 != 499 {
					continue
				}
				// Mid-stream agreement: the view has survived however
				// many rebalances, spreads and resizes the stream forced.
				for p := 0; p < 200; p++ {
					x := int64(rng.Uint64n(17_000)) - 300
					checkReadAgainstLocked(t, a, x)
					if t.Failed() {
						t.FailNow()
					}
				}
			}
		})
	}
}

func checkReadAgainstLocked(t *testing.T, a *Array, x int64) {
	t.Helper()
	wantV, wantOK := a.Find(x)
	gotV, gotOK, valid := a.ReadFind(x)
	if !valid {
		t.Errorf("ReadFind(%d) invalid on a quiescent array", x)
		return
	}
	if gotOK != wantOK || (wantOK && gotV != wantV) {
		t.Errorf("ReadFind(%d) = (%d,%v), Find says (%d,%v)", x, gotV, gotOK, wantV, wantOK)
	}
	fk, fv, fok := a.Floor(x)
	gfk, gfv, gfok, fvalid := a.ReadFloor(x)
	if !fvalid {
		t.Errorf("ReadFloor(%d) invalid on a quiescent array", x)
		return
	}
	if gfok != fok || (fok && (gfk != fk || gfv != fv)) {
		t.Errorf("ReadFloor(%d) = (%d,%d,%v), Floor says (%d,%d,%v)", x, gfk, gfv, gfok, fk, fv, fok)
	}
	ck, cv, cok := a.Ceiling(x)
	gck, gcv, gcok, cvalid := a.ReadCeiling(x)
	if !cvalid {
		t.Errorf("ReadCeiling(%d) invalid on a quiescent array", x)
		return
	}
	if gcok != cok || (cok && (gck != ck || gcv != cv)) {
		t.Errorf("ReadCeiling(%d) = (%d,%d,%v), Ceiling says (%d,%d,%v)", x, gck, gcv, gcok, ck, cv, cok)
	}
}

// TestReadPathInterleavedInvalid pins the fence around the ablation
// layouts: the read view is clustered-only, so an interleaved array
// publishes none and its probes report valid=false — a caller falls back
// to the locked path — rather than misreading gapped slots as a run.
func TestReadPathInterleavedInvalid(t *testing.T) {
	cfg := BaselineConfig()
	cfg.PageSlots = 32
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 2_000; i++ {
		if err := a.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, valid := a.ReadFind(7); valid {
		t.Error("ReadFind valid on an interleaved array")
	}
	if _, _, _, valid := a.ReadFloor(7); valid {
		t.Error("ReadFloor valid on an interleaved array")
	}
	if _, _, _, valid := a.ReadCeiling(7); valid {
		t.Error("ReadCeiling valid on an interleaved array")
	}
}

// TestReadPathStaleViewFailsClosed pins the defensive contract: a view
// captured before a resize, probed against the post-resize array, must
// either answer correctly or report valid=false — never panic, never
// return a value that was not stored. The shard layer's version check
// would discard the answer either way; this test proves the view layer
// alone cannot crash on torn state.
func TestReadPathStaleViewFailsClosed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SegmentSlots = 8
	cfg.PageSlots = 32
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 64; i++ {
		if err := a.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	stale := a.view.Load()
	if stale == nil {
		t.Fatal("no view published")
	}
	// Force many resizes so the stale view's layout is thoroughly wrong.
	for i := int64(64); i < 50_000; i++ {
		if err := a.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(49_999); i >= 1_000; i-- {
		if _, err := a.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for x := int64(-10); x < 1_100; x++ {
		if v, ok, valid := stale.find(x); valid && ok {
			// A stale-but-valid hit must still be a value that was stored
			// under some key at some point (all values equal their key
			// here modulo the two insert loops).
			if v != x {
				t.Fatalf("stale view returned fabricated value %d for key %d", v, x)
			}
		}
		stale.floor(x)   // must not panic
		stale.ceiling(x) // must not panic
	}
}

// TestReadPathAllocationFree pins the three view probes at zero
// allocations — they are //rma:noalloc roots, and the escape gate
// verifies the closure statically; this is the dynamic witness.
func TestReadPathAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10_000; i++ {
		if err := a.Insert(i*2, i); err != nil {
			t.Fatal(err)
		}
	}
	var sink int64
	if allocs := testing.AllocsPerRun(50, func() {
		for x := int64(0); x < 64; x++ {
			v, _, _ := a.ReadFind(x * 37)
			fk, _, _, _ := a.ReadFloor(x * 37)
			ck, _, _, _ := a.ReadCeiling(x * 37)
			sink += v + fk + ck
		}
	}); allocs != 0 {
		t.Errorf("ReadFind/ReadFloor/ReadCeiling: %.1f allocs/run, want 0", allocs)
	}
	_ = sink
}
