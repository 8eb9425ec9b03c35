package rebal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeSource is a deterministic Source: per-shard work counters guarded
// by one mutex, mirroring the shard layer's one-lock-per-slice shape.
type fakeSource struct {
	mu      sync.Mutex
	backlog []int // remaining slices per shard
	done    []int // slices executed per shard
	err     error // returned once per MaintainShard while set
}

func newFakeSource(backlog ...int) *fakeSource {
	return &fakeSource{backlog: backlog, done: make([]int, len(backlog))}
}

func (f *fakeSource) NumShards() int { return len(f.backlog) }

func (f *fakeSource) MaintainShard(i int) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return false, f.err
	}
	if f.backlog[i] == 0 {
		return false, nil
	}
	f.backlog[i]--
	f.done[i]++
	return true, nil
}

// Quiesce: the fake retires nothing behind readers.
func (f *fakeSource) Quiesce() {}

func (f *fakeSource) add(i, n int) {
	f.mu.Lock()
	f.backlog[i] += n
	f.mu.Unlock()
}

func (f *fakeSource) snapshot() (backlog, done []int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.backlog...), append([]int(nil), f.done...)
}

// TestCloseDrainsPending: work queued before (and while) the pool is
// closing must be fully executed by the time Close returns.
func TestCloseDrainsPending(t *testing.T) {
	src := newFakeSource(500, 300, 200, 100)
	p := NewPool(src, 2)
	p.Start()
	p.Notify()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	backlog, done := src.snapshot()
	for i, b := range backlog {
		if b != 0 {
			t.Errorf("shard %d: %d slices left after Close", i, b)
		}
	}
	want := []int{500, 300, 200, 100}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("shard %d: executed %d slices, want %d", i, done[i], want[i])
		}
	}
}

// TestCloseWithoutStartDrains: a pool that never started still drains
// on Close (the lifecycle contract is "Close leaves nothing pending").
func TestCloseWithoutStartDrains(t *testing.T) {
	src := newFakeSource(10, 20)
	p := NewPool(src, 4)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if backlog, _ := src.snapshot(); backlog[0] != 0 || backlog[1] != 0 {
		t.Fatalf("backlog %v left after Close without Start", backlog)
	}
}

// TestDoubleCloseSafe: Close is idempotent and returns the first result.
func TestDoubleCloseSafe(t *testing.T) {
	src := newFakeSource(50, 50)
	p := NewPool(src, 3)
	p.Start()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// And concurrently, under -race.
	p2 := NewPool(newFakeSource(10), 2)
	p2.Start()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p2.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestCloseReportsDrainError: an allocation failure during the final
// drain surfaces from Close.
func TestCloseReportsDrainError(t *testing.T) {
	src := newFakeSource(5)
	src.err = errors.New("injected")
	p := NewPool(src, 1)
	if err := p.Close(); err == nil {
		t.Fatal("Close swallowed the drain error")
	}
}

// TestFloodDoesNotStarveOtherShards: with shard 0 continuously
// refilled, the other shards' backlogs must still drain — the
// round-robin cursor guarantees every K-th slice visits each shard.
func TestFloodDoesNotStarveOtherShards(t *testing.T) {
	src := newFakeSource(0, 64, 64, 64)
	p := NewPool(src, 2)
	p.Start()
	defer p.Close()

	// Flooder: keeps shard 0's backlog topped up and the pool awake.
	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			src.add(0, 8)
			p.Notify()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		backlog, _ := src.snapshot()
		if backlog[1] == 0 && backlog[2] == 0 && backlog[3] == 0 {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			flood.Wait()
			t.Fatalf("shards 1-3 starved under a shard-0 flood: backlog %v", backlog)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	flood.Wait()
}

// TestNotifyWakesParkedWorkers: after a clean sweep the workers park;
// new work plus Notify must get executed without Close.
func TestNotifyWakesParkedWorkers(t *testing.T) {
	src := newFakeSource(0, 0)
	p := NewPool(src, 1)
	p.Start()
	defer p.Close()

	time.Sleep(10 * time.Millisecond) // let the worker park
	src.add(1, 25)
	p.Notify()

	deadline := time.Now().Add(10 * time.Second)
	for {
		backlog, done := src.snapshot()
		if backlog[1] == 0 && done[1] == 25 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("parked worker never woke: backlog %v done %v", backlog, done)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStartTwicePanics pins the lifecycle contract.
func TestStartTwicePanics(t *testing.T) {
	p := NewPool(newFakeSource(0), 1)
	p.Start()
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	p.Start()
}
