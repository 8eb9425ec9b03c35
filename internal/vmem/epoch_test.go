package vmem

import (
	"sync"
	"testing"
)

// Unit tests for the epoch gate: the parity-bucket advance rule, limbo
// retention while readers are pinned, reclamation ordering back into the
// spare pool, and the Swap/Truncate retirement routing.

func TestEpochGateAdvanceRequiresEmptyNextBucket(t *testing.T) {
	g := NewEpochGate()
	p := New(8)
	if err := p.Grow(1); err != nil {
		t.Fatal(err)
	}
	pg := p.Page(0)
	g.Retire(p, pg)
	if n := g.LimboPages(); n != 1 {
		t.Fatalf("LimboPages = %d, want 1", n)
	}

	// A reader pinned in the NEXT epoch's parity bucket blocks the
	// advance (epoch 0 → 1 needs bucket 1 empty).
	e0 := g.Enter() // bucket 0 — does not block 0→1
	if !g.TryAdvance() {
		t.Fatal("advance 0→1 blocked by a bucket-0 reader; the gate checks the wrong bucket")
	}
	// Now epoch 1: the bucket-0 reader from epoch 0 blocks 1→2.
	if g.TryAdvance() {
		t.Fatal("advance 1→2 succeeded with an epoch-0 reader still pinned")
	}
	g.Exit(e0)
	if !g.TryAdvance() {
		t.Fatal("advance 1→2 still blocked after the reader exited")
	}
	if got := g.Advances(); got != 2 {
		t.Fatalf("Advances = %d, want 2", got)
	}
}

func TestEpochGateFreesOnlyTwoEpochsBack(t *testing.T) {
	g := NewEpochGate()
	p := New(8)
	if err := p.Grow(2); err != nil {
		t.Fatal(err)
	}
	g.Retire(p, p.Page(0)) // retired at epoch 0
	if !g.TryAdvance() {   // epoch 1: entries from epoch <= -1 freed, i.e. none
		t.Fatal("advance failed")
	}
	if n := g.LimboPages(); n != 1 {
		t.Fatalf("epoch-0 page freed after one advance; limbo %d, want 1", n)
	}
	if p.SparePages() != 0 {
		t.Fatalf("spare pool got a page too early")
	}
	g.Retire(p, p.Page(1)) // retired at epoch 1
	if !g.TryAdvance() {   // epoch 2: frees entries with epoch <= 0
		t.Fatal("advance failed")
	}
	if n := g.LimboPages(); n != 1 {
		t.Fatalf("limbo %d after second advance, want 1 (only the epoch-0 page freed)", n)
	}
	if p.SparePages() != 1 {
		t.Fatalf("spare pool %d, want 1", p.SparePages())
	}
	if !g.TryAdvance() { // epoch 3: frees the epoch-1 page
		t.Fatal("advance failed")
	}
	if n := g.LimboPages(); n != 0 {
		t.Fatalf("limbo %d after third advance, want 0", n)
	}
	// A 2-page space bounds its pool at 2/8+1 = 1: the freed epoch-1 page
	// found the pool full and was dropped.
	if p.SparePages() != 1 {
		t.Fatalf("spare pool %d, want its bound 1", p.SparePages())
	}
}

// TestEpochGateSwapRoutesThroughLimbo: with a gate attached, Swap must
// send the displaced page to limbo instead of the spare pool — an
// optimistic reader may still be probing it.
func TestEpochGateSwapRoutesThroughLimbo(t *testing.T) {
	p := New(8)
	if err := p.Grow(1); err != nil {
		t.Fatal(err)
	}
	g := NewEpochGate()
	p.AttachEpochGate(g)
	old := p.Page(0)
	fresh, err := p.AcquireSpare()
	if err != nil {
		t.Fatal(err)
	}
	p.Swap(0, fresh)
	if p.SparePages() != 0 {
		t.Fatal("Swap returned the displaced page straight to the spare pool despite the gate")
	}
	if g.LimboPages() != 1 {
		t.Fatalf("limbo %d after gated Swap, want 1", g.LimboPages())
	}
	// Two advances later the old page is spare again and reusable.
	g.TryAdvance()
	g.TryAdvance()
	g.TryAdvance()
	if p.SparePages() != 1 {
		t.Fatalf("spare pool %d after advances, want 1", p.SparePages())
	}
	reused, err := p.AcquireSpare()
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &old[0] {
		t.Error("reclaimed page was not recycled through the spare pool")
	}
}

// TestEpochGateTruncateRoutesThroughLimbo mirrors the Swap test for the
// shrink path.
func TestEpochGateTruncateRoutesThroughLimbo(t *testing.T) {
	p := New(8)
	if err := p.Grow(4); err != nil {
		t.Fatal(err)
	}
	g := NewEpochGate()
	p.AttachEpochGate(g)
	p.Truncate(1)
	if p.SparePages() != 0 {
		t.Fatal("Truncate bypassed the gate")
	}
	if g.LimboPages() != 3 {
		t.Fatalf("limbo %d after gated Truncate(1), want 3", g.LimboPages())
	}
}

// TestEpochGateConcurrentEnterExit hammers Enter/Exit from many
// goroutines against an advancing writer; the gate must never advance
// past a pinned parity bucket (checked implicitly: -race plus the
// bucket counters never going negative).
func TestEpochGateConcurrentEnterExit(t *testing.T) {
	g := NewEpochGate()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := g.Enter()
				g.Exit(p)
			}
		}()
	}
	var mu sync.Mutex // stands in for the owning shard's lock
	for i := 0; i < 100_000; i++ {
		mu.Lock()
		g.TryAdvance()
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	if g.Advances() == 0 {
		t.Fatal("the gate never advanced under concurrent readers")
	}
}
