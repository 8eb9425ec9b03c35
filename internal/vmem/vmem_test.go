package vmem

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestGrowAndAccess(t *testing.T) {
	p := New(16)
	if err := p.Grow(4); err != nil {
		t.Fatal(err)
	}
	if p.NumPages() != 4 || p.Slots() != 64 {
		t.Fatalf("got %d pages / %d slots", p.NumPages(), p.Slots())
	}
	for i := 0; i < p.Slots(); i++ {
		p.Set(i, int64(i*3))
	}
	for i := 0; i < p.Slots(); i++ {
		if got := p.Get(i); got != int64(i*3) {
			t.Fatalf("slot %d: got %d", i, got)
		}
	}
	// Fresh pages must be zeroed.
	if err := p.Grow(1); err != nil {
		t.Fatal(err)
	}
	for i := 64; i < 80; i++ {
		if p.Get(i) != 0 {
			t.Fatalf("fresh page not zeroed at %d", i)
		}
	}
}

func TestSwapIsRewiringNotCopying(t *testing.T) {
	p := New(8)
	if err := p.Grow(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p.Set(i, 100+int64(i))
	}
	spare, err := p.AcquireSpare()
	if err != nil {
		t.Fatal(err)
	}
	for i := range spare {
		spare[i] = 200 + int64(i)
	}
	before := p.Stats()
	p.Swap(0, spare)
	after := p.Stats()
	if after.Swaps != before.Swaps+1 {
		t.Fatalf("swap not counted")
	}
	for i := 0; i < 8; i++ {
		if got := p.Get(i); got != 200+int64(i) {
			t.Fatalf("virtual page 0 slot %d: got %d", i, got)
		}
	}
	// The old physical page went back to the pool and is handed out next,
	// with its old contents intact (no zeroing on reuse).
	reused, err := p.AcquireSpare()
	if err != nil {
		t.Fatal(err)
	}
	if reused[0] != 100 {
		t.Fatalf("expected pooled page with stale contents, got %d", reused[0])
	}
	if s := p.Stats(); s.PoolReuses == 0 {
		t.Fatal("pool reuse not counted")
	}
}

func TestGrowAbsorbsSpares(t *testing.T) {
	p := New(8)
	if err := p.Grow(10); err != nil {
		t.Fatal(err)
	}
	p.Truncate(8) // two pages to the pool, which 8 mapped pages bound at 2
	if p.SparePages() != 2 {
		t.Fatalf("expected 2 spares, got %d", p.SparePages())
	}
	before := p.Stats().FreshAllocs
	if err := p.Grow(3); err != nil { // should take 2 from pool + 1 fresh
		t.Fatal(err)
	}
	if got := p.Stats().FreshAllocs - before; got != 1 {
		t.Fatalf("expected 1 fresh alloc, got %d", got)
	}
	if p.SparePages() != 0 {
		t.Fatalf("spares not absorbed: %d left", p.SparePages())
	}
}

func TestTruncatePanicsBeyondSize(t *testing.T) {
	p := New(8)
	_ = p.Grow(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Truncate(2)
}

func TestAllocFailureLeavesSpaceIntact(t *testing.T) {
	p := New(8)
	if err := p.Grow(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p.Set(i, int64(i))
	}
	p.InjectAllocFailure(0)
	if err := p.Grow(3); err != ErrAllocFailed {
		t.Fatalf("want ErrAllocFailed, got %v", err)
	}
	if p.NumPages() != 2 {
		t.Fatalf("failed Grow changed page count to %d", p.NumPages())
	}
	for i := 0; i < 16; i++ {
		if p.Get(i) != int64(i) {
			t.Fatalf("data corrupted at %d after failed grow", i)
		}
	}
	p.InjectAllocFailure(-1)
	if err := p.Grow(3); err != nil {
		t.Fatalf("recovery grow failed: %v", err)
	}
}

func TestAllocFailureMidBatchReturnsPartialToPool(t *testing.T) {
	p := New(8)
	_ = p.Grow(36)
	p.Truncate(32) // 4 spares, under the bound of 32/8+1
	p.InjectAllocFailure(2)
	if _, err := p.AcquireSpares(4); err != ErrAllocFailed {
		t.Fatalf("want ErrAllocFailed, got %v", err)
	}
	// The two pages taken before the failure must be back in the pool.
	if p.SparePages() != 4 {
		t.Fatalf("pool leaked: %d spares", p.SparePages())
	}
}

func TestFootprintAccountsSpares(t *testing.T) {
	const pageBytes = 128 * 8
	p := New(128)
	_ = p.Grow(24)
	p.Truncate(16) // 3 of the 8 unmapped pages pooled: the bound for 16
	before := p.FootprintBytes()
	p.Truncate(8) // the bound falls to 2: 8 unmapped pages and 1 pooled one dropped
	if got, want := before-p.FootprintBytes(), int64(9*pageBytes); got != want {
		t.Fatalf("truncate freed %d bytes, want %d: pooled pages count, dropped ones do not", got, want)
	}
	before = p.FootprintBytes()
	if _, err := p.AcquireSpare(); err != nil {
		t.Fatal(err)
	}
	if got := before - p.FootprintBytes(); got != pageBytes {
		t.Fatalf("detaching a spare freed %d bytes, want %d", got, pageBytes)
	}
}

// TestSparePoolBound: the pool never holds more than NumPages()/8+1
// pages after any operation that feeds it, with or without an epoch
// gate (drained by TryAdvance after every step), and the steps offer it
// enough pages to reach the bound.
func TestSparePoolBound(t *testing.T) {
	swapAll := func(p *Pages) {
		spares, err := p.AcquireSpares(p.NumPages())
		if err != nil {
			t.Fatal(err)
		}
		for v := range spares {
			p.Swap(v, spares[v])
		}
	}
	truncate := func(n int) func(p *Pages) { return func(p *Pages) { p.Truncate(n) } }
	releaseMany := func(p *Pages) {
		for i := 0; i < 64; i++ {
			p.ReleaseSpare(make([]int64, p.PageSlots()))
		}
	}
	for _, tc := range []struct {
		name  string
		steps []func(p *Pages)
	}{
		{"Swap", []func(*Pages){swapAll}},
		{"Truncate", []func(*Pages){truncate(16)}},
		// The pool fills at 64 pages' bound, then Truncate lowers it.
		{"SwapThenTruncate", []func(*Pages){swapAll, truncate(8)}},
		{"ReleaseSpare", []func(*Pages){releaseMany}},
	} {
		for _, gated := range []bool{false, true} {
			name := tc.name + "/ungated"
			if gated {
				name = tc.name + "/gated"
			}
			t.Run(name, func(t *testing.T) {
				p := New(8)
				if err := p.Grow(64); err != nil {
					t.Fatal(err)
				}
				var g *EpochGate
				if gated {
					g = NewEpochGate()
					p.AttachEpochGate(g)
				}
				check := func(after string) {
					t.Helper()
					if bound := p.NumPages()/8 + 1; p.SparePages() > bound {
						t.Fatalf("after %s: %d spares, bound %d", after, p.SparePages(), bound)
					}
				}
				for i, step := range tc.steps {
					step(p)
					check(fmt.Sprintf("step %d", i))
					for g != nil && g.LimboPages() > 0 {
						if !g.TryAdvance() {
							t.Fatal("advance failed with no readers")
						}
						check("TryAdvance")
					}
				}
				if bound := p.NumPages()/8 + 1; p.SparePages() != bound {
					t.Fatalf("pool settled at %d, want the bound %d: the steps never filled it", p.SparePages(), bound)
				}
			})
		}
	}
}

// Property: any sequence of grow/truncate/swap operations preserves the
// invariant that every virtual page is a distinct physical page of the
// right size.
func TestPageTableInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		p := New(4)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				_ = p.Grow(int(op%3) + 1)
			case 1:
				n := p.NumPages() / 2
				p.Truncate(n)
			case 2:
				if p.NumPages() > 0 {
					sp, err := p.AcquireSpare()
					if err != nil {
						return false
					}
					p.Swap(int(op)%p.NumPages(), sp)
				}
			case 3:
				sp, err := p.AcquireSpares(int(op%3) + 1)
				if err != nil {
					return false
				}
				p.Append(sp)
			}
			if p.SparePages() > p.NumPages()/8+1 {
				return false // the pool outgrew its bound
			}
		}
		seen := map[*int64]bool{}
		for v := 0; v < p.NumPages(); v++ {
			pg := p.Page(v)
			if len(pg) != 4 {
				return false
			}
			if seen[&pg[0]] {
				return false // two virtual pages share a physical page
			}
			seen[&pg[0]] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
