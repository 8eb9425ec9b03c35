package core

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rma/internal/vmem"
)

func durableArray(t *testing.T, cfg Config) (*Array, string) {
	t.Helper()
	dir := t.TempDir()
	r, err := vmem.CreateFileRegion(dir, cfg.PageSlots)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachDurability(r); err != nil {
		t.Fatal(err)
	}
	return a, dir
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.SegmentSlots = 8
	cfg.PageSlots = 32
	return cfg
}

// collect returns every (key, value) pair in order.
func collect(t *testing.T, a *Array) map[int64]int64 {
	t.Helper()
	out := make(map[int64]int64, a.Size())
	w := a.NewWalker(math.MinInt64, math.MaxInt64)
	for {
		k, v, ok := w.Next()
		if !ok {
			break
		}
		out[k] = v
	}
	w.Release()
	return out
}

func reopen(t *testing.T, dir string, cfg Config) *Array {
	t.Helper()
	r, err := vmem.OpenFileRegion(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	a, err := Open(r, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testCheckpointOpenRoundTrip(t *testing.T, cfg Config) {
	a, dir := durableArray(t, cfg)
	rng := rand.New(rand.NewSource(7))
	want := make(map[int64]int64)
	for i := 0; i < 5000; i++ {
		k := int64(rng.Intn(100_000))
		v := k * 3
		if err := a.Insert(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Duplicate keys are allowed; track multiset via collect comparison
	// against the array itself instead: checkpoint, reopen, diff.
	if _, err := a.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	before := collect(t, a)
	sizeBefore := a.Size()
	a.Region().Close()

	b := reopen(t, dir, cfg)
	if b.Size() != sizeBefore {
		t.Fatalf("recovered size %d, want %d", b.Size(), sizeBefore)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("recovered array invalid: %v", err)
	}
	after := collect(t, b)
	if len(after) != len(before) {
		t.Fatalf("recovered %d distinct keys, want %d", len(after), len(before))
	}
	for k, v := range before {
		if after[k] != v {
			t.Fatalf("key %d: recovered %d, want %d", k, after[k], v)
		}
	}
	// The recovered array keeps serving writes and further checkpoints.
	for i := 0; i < 2000; i++ {
		if err := b.Insert(int64(200_000+i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointOpenRoundTripClustered(t *testing.T) {
	testCheckpointOpenRoundTrip(t, smallConfig())
}

func TestCheckpointOpenRoundTripTwoPass(t *testing.T) {
	cfg := smallConfig()
	cfg.Rebalance = RebalanceTwoPass
	cfg.Adaptive = AdaptiveOff
	testCheckpointOpenRoundTrip(t, cfg)
}

func TestCheckpointIncremental(t *testing.T) {
	cfg := DefaultConfig() // real page size: many pages per checkpoint
	a, _ := durableArray(t, cfg)
	for i := 0; i < 200_000; i++ {
		if err := a.Insert(int64(i*7%1_000_000), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	full := a.Stats().CheckpointPages
	// A handful of localized inserts must not rewrite the whole array.
	for i := 0; i < 10; i++ {
		if err := a.Insert(int64(500_000+i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	delta := a.Stats().CheckpointPages - full
	if delta == 0 || delta >= full/4 {
		t.Fatalf("incremental checkpoint wrote %d pages after full %d — dirty tracking not incremental", delta, full)
	}
	if a.Stats().Checkpoints != 2 {
		t.Fatalf("Checkpoints stat %d", a.Stats().Checkpoints)
	}
}

// TestAllocFailureMidRebalanceLeavesArrayConsistent pins the satellite
// contract: a vmem allocation failure during a window rebalance or a
// grow mid-insert surfaces as an error, leaves the array structurally
// valid with all its data, records AllocFailures, and the array keeps
// serving once the injection is lifted.
func TestAllocFailureMidRebalanceLeavesArrayConsistent(t *testing.T) {
	for _, name := range []string{"keys", "vals"} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			a, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[int64]int64)
			insertUntilErr := func() error {
				for i := 0; i < 100_000; i++ {
					k, v := int64(i), int64(i*2)
					if err := a.Insert(k, v); err != nil {
						return err
					}
					want[k] = v
				}
				return nil
			}
			if err := insertUntilErr(); err != nil {
				t.Fatal(err)
			}
			// Arm: every next allocation on one space fails, so the very
			// next grow or rewired rebalance trips mid-flight.
			if name == "keys" {
				a.InjectAllocFailure(0, -1)
			} else {
				a.InjectAllocFailure(-1, 0)
			}
			sizeAt := a.Size()
			err = insertUntilErr()
			if !errors.Is(err, vmem.ErrAllocFailed) {
				t.Fatalf("want ErrAllocFailed, got %v", err)
			}
			if a.Stats().AllocFailures == 0 {
				t.Fatal("AllocFailures not recorded")
			}
			// The failed operation must not have lost or corrupted anything.
			if err := a.Validate(); err != nil {
				t.Fatalf("array invalid after alloc failure: %v", err)
			}
			if a.Size() < sizeAt {
				t.Fatalf("size regressed: %d < %d", a.Size(), sizeAt)
			}
			got := collect(t, a)
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %d: got %d want %d after alloc failure", k, got[k], v)
				}
			}
			// Reads still serve.
			for k, v := range want {
				fv, ok := a.Find(k)
				if !ok || fv != v {
					t.Fatalf("Find(%d) = %d,%v after alloc failure", k, fv, ok)
				}
				break
			}
			// Lift the injection: the array resumes growing.
			a.InjectAllocFailure(-1, -1)
			if err := insertUntilErr(); err != nil {
				t.Fatalf("insert after lifting injection: %v", err)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointFaultDegradesToInMemory pins graceful degradation: a
// checkpoint that fails (any injected vmem fault) leaves the array
// serving and consistent, records CheckpointFailures, and a later
// checkpoint succeeds and persists everything.
func TestCheckpointFaultDegradesToInMemory(t *testing.T) {
	for _, op := range []vmem.FaultOp{vmem.FaultPageWrite, vmem.FaultDataSync,
		vmem.FaultManifestWrite, vmem.FaultManifestSync, vmem.FaultRename} {
		t.Run(string(op), func(t *testing.T) {
			cfg := smallConfig()
			a, dir := durableArray(t, cfg)
			for i := 0; i < 3000; i++ {
				if err := a.Insert(int64(i), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Checkpoint(0); err != nil {
				t.Fatal(err)
			}
			for i := 3000; i < 4000; i++ {
				if err := a.Insert(int64(i), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			a.Region().InjectFault(op, 0)
			if _, err := a.Checkpoint(0); !errors.Is(err, vmem.ErrFaultInjected) {
				t.Fatalf("want injected fault, got %v", err)
			}
			if a.Stats().CheckpointFailures != 1 {
				t.Fatalf("CheckpointFailures %d", a.Stats().CheckpointFailures)
			}
			// Still serving and consistent in memory.
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
			for i := 4000; i < 4100; i++ {
				if err := a.Insert(int64(i), int64(i)); err != nil {
					t.Fatal(err)
				}
			}
			// The retry persists everything written so far.
			if _, err := a.Checkpoint(0); err != nil {
				t.Fatalf("retry checkpoint: %v", err)
			}
			a.Region().Close()
			b := reopen(t, dir, cfg)
			if b.Size() != 4100 {
				t.Fatalf("recovered %d elements, want 4100", b.Size())
			}
			if err := b.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCheckpointSurvivesResize pins that both resize paths (rewired
// in-place and fresh-space replacement) keep dirty tracking alive, so a
// checkpoint after a resize persists the full new geometry.
func TestCheckpointSurvivesResize(t *testing.T) {
	for _, mode := range []RebalanceMode{RebalanceRewired, RebalanceTwoPass} {
		cfg := smallConfig()
		cfg.Rebalance = mode
		if mode == RebalanceTwoPass {
			cfg.Adaptive = AdaptiveOff
		}
		a, dir := durableArray(t, cfg)
		if _, err := a.Checkpoint(0); err != nil {
			t.Fatal(err)
		}
		grows := a.Stats().Grows
		for i := 0; i < 20_000; i++ {
			if err := a.Insert(int64(i), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if a.Stats().Grows == grows {
			t.Fatal("test did not exercise a resize")
		}
		if _, err := a.Checkpoint(0); err != nil {
			t.Fatal(err)
		}
		a.Region().Close()
		b := reopen(t, dir, cfg)
		if b.Size() != 20_000 {
			t.Fatalf("mode %v: recovered %d, want 20000", mode, b.Size())
		}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointWithoutRegionErrors(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(0); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("want ErrNotDurable, got %v", err)
	}
}

// interleavedConfig is smallConfig on the paper-baseline layout, which
// the durability layer refuses.
func interleavedConfig() Config {
	cfg := smallConfig()
	cfg.Layout = LayoutInterleaved
	cfg.Rebalance = RebalanceTwoPass
	cfg.Adaptive = AdaptiveOff
	return cfg
}

func TestOpenRejectsMismatchedConfig(t *testing.T) {
	cfg := smallConfig()
	a, dir := durableArray(t, cfg)
	for i := 0; i < 100; i++ {
		if err := a.Insert(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	a.Region().Close()

	r, err := vmem.OpenFileRegion(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Open(r, interleavedConfig(), 0); !errors.Is(err, ErrClusteredOnly) {
		t.Fatalf("Open with an interleaved config: want ErrClusteredOnly, got %v", err)
	}
	bad := cfg
	bad.PageSlots = 64
	if _, err := Open(r, bad, 0); err == nil {
		t.Fatal("Open accepted a page-size mismatch")
	}
	// The right config still opens after the failed attempts.
	if _, err := Open(r, cfg, 0); err != nil {
		t.Fatalf("Open with matching config: %v", err)
	}
}

func TestAttachDurabilityRejectsInterleaved(t *testing.T) {
	cfg := interleavedConfig()
	r, err := vmem.CreateFileRegion(t.TempDir(), cfg.PageSlots)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachDurability(r); !errors.Is(err, ErrClusteredOnly) {
		t.Fatalf("AttachDurability on an interleaved array: want ErrClusteredOnly, got %v", err)
	}
	if a.Durable() {
		t.Fatal("rejected array reports Durable")
	}
}

// TestCoreMetaFixedWords pins the checkpoint meta's two retired words:
// a clustered array writes layout = 0 and bitmapWords = 0 at their
// version-2 offsets (what every existing checkpoint holds), and a blob
// carrying anything else — an interleaved array's checkpoint from before
// the layout left the durable path — is refused, not carried.
func TestCoreMetaFixedWords(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := a.Insert(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	a.SetWALLSN(0x1122334455667788)
	meta := a.encodeMeta()
	layoutOff := len(coreMetaMagic) + 4*4
	wordsOff := len(coreMetaMagic) + 4*5 + 8 + 4*a.NumSegments()
	if len(meta) != wordsOff+4+8 {
		t.Fatalf("meta is %d bytes, want %d", len(meta), wordsOff+4+8)
	}
	if v := binary.LittleEndian.Uint32(meta[len(coreMetaMagic):]); v != 2 {
		t.Fatalf("meta version %d, want 2", v)
	}
	if l, w := binary.LittleEndian.Uint32(meta[layoutOff:]), binary.LittleEndian.Uint32(meta[wordsOff:]); l != 0 || w != 0 {
		t.Fatalf("layout word %d, bitmapWords %d: both must be 0", l, w)
	}
	md, err := decodeCoreMeta(meta)
	if err != nil {
		t.Fatal(err)
	}
	if md.n != a.Size() || md.numSegs != a.NumSegments() || md.walLSN != 0x1122334455667788 {
		t.Fatalf("decoded n=%d segs=%d lsn=%#x", md.n, md.numSegs, md.walLSN)
	}

	bad := slices.Clone(meta)
	binary.LittleEndian.PutUint32(bad[layoutOff:], uint32(LayoutInterleaved))
	if _, err := decodeCoreMeta(bad); !errors.Is(err, ErrClusteredOnly) {
		t.Fatalf("layout word 1: want ErrClusteredOnly, got %v", err)
	}
	// One bitmap word, payload included, so only the count is wrong.
	bad = slices.Clone(meta[:wordsOff])
	bad = binary.LittleEndian.AppendUint32(bad, 1)
	bad = binary.LittleEndian.AppendUint64(bad, ^uint64(0))
	bad = append(bad, meta[wordsOff+4:]...)
	if _, err := decodeCoreMeta(bad); !errors.Is(err, ErrClusteredOnly) {
		t.Fatalf("bitmapWords 1: want ErrClusteredOnly, got %v", err)
	}
}

func TestDeleteThenCheckpointRoundTrip(t *testing.T) {
	cfg := smallConfig()
	a, dir := durableArray(t, cfg)
	for i := 0; i < 10_000; i++ {
		if err := a.Insert(int64(i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10_000; i += 2 {
		if ok, err := a.Delete(int64(i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", i, ok, err)
		}
	}
	if _, err := a.Checkpoint(0); err != nil {
		t.Fatal(err)
	}
	a.Region().Close()
	b := reopen(t, dir, cfg)
	if b.Size() != 5000 {
		t.Fatalf("recovered %d, want 5000", b.Size())
	}
	for i := 0; i < 10_000; i++ {
		_, ok := b.Find(int64(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Find(%d) = %v, want %v", i, ok, want)
		}
	}
}
