package rma

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"rma/internal/vmem"
	"rma/internal/wal"
)

// Facade-level WAL integration: construction, recovery composition with
// checkpoints, the automatic scheduler, the fault matrix, and the torn
// corpora — everything through the public Sharded surface. The log's
// own format, group commit and fault mechanics are covered in
// internal/wal; these tests pin the wiring.

func walOpts(extra ...Option) []Option {
	base := []Option{
		WithSegmentCapacity(8),
		WithPageCapacity(64),
	}
	return append(base, extra...)
}

// newWALSharded builds a durable+WAL map rooted at dir.
func newWALSharded(t *testing.T, dir string, c WALConfig, extra ...Option) *Sharded {
	t.Helper()
	s, err := NewSharded(4, walOpts(append(extra, WithDurability(dir), WithWAL(c))...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkContents asserts the map holds exactly want.
func checkContents(t *testing.T, s *Sharded, want map[int64]int64) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("recovered map invalid: %v", err)
	}
	if got := s.Size(); got != len(want) {
		t.Fatalf("size %d, want %d", got, len(want))
	}
	for k, v := range s.All() {
		wv, ok := want[k]
		if !ok {
			t.Fatalf("unexpected key %d", k)
		}
		if wv != v {
			t.Fatalf("key %d holds %d, want %d", k, v, wv)
		}
	}
}

// TestWALShardedRecovery covers the three recovery compositions: log
// only (no checkpoint ever published), checkpoint+log suffix, and a
// second generation of each.
func TestWALShardedRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{CheckpointInterval: -1, CheckpointWALBytes: -1}

	// Generation 1: writes but no checkpoint — the log alone (its
	// genesis record names the separators) must rebuild everything.
	s := newWALSharded(t, dir, cfg)
	ref := make(map[int64]int64)
	for i := int64(0); i < 500; i++ {
		if err := s.Insert(i*7, i); err != nil {
			t.Fatal(err)
		}
		ref[i*7] = i
	}
	for i := int64(0); i < 100; i++ {
		if _, err := s.Delete(i * 14); err != nil {
			t.Fatal(err)
		}
		delete(ref, i*14)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := OpenSharded(dir, walOpts(WithWAL(cfg))...)
	if err != nil {
		t.Fatalf("recover from log only: %v", err)
	}
	checkContents(t, s, ref)

	// Generation 2: checkpoint, then more writes — recovery replays only
	// the suffix over the published round. Keys live in a range disjoint
	// from generation 1's (the map is a multiset; reusing a key would
	// add a second occurrence where the reference overwrites).
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 300; i++ {
		if err := s.Insert(100_000+i, -i); err != nil {
			t.Fatal(err)
		}
		ref[100_000+i] = -i
	}
	batch := []BatchOp{
		{Kind: OpPut, Key: 500_000, Val: 1},
		{Kind: OpPut, Key: 500_002, Val: 2},
		{Kind: OpDelete, Key: 100_000},
	}
	if _, err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	ref[500_000], ref[500_002] = 1, 2
	delete(ref, 100_000)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenSharded(dir, walOpts(WithWAL(cfg))...)
	if err != nil {
		t.Fatalf("recover checkpoint+suffix: %v", err)
	}
	defer s.Close()
	checkContents(t, s, ref)
	// The recovered map must keep logging.
	if err := s.Insert(600_000, 6); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALRecords == 0 {
		t.Fatal("recovered map is not logging")
	}
}

// TestWALEmptyLogReopenKeepsLSNAboveFloor pins recovery's LSN seeding
// against the empty-log edge: a checkpoint's publish truncates every
// record-bearing sealed segment and the close-time drain rotates in a
// header-only active one, so the next open finds a log with zero
// surviving records. The reopened map must still assign fresh LSNs
// strictly above the persisted per-shard replay floors — seeding the
// counter from surviving records alone would hand out LSNs at or below
// the floors, and the recovery after that would silently skip the newly
// acked writes.
func TestWALEmptyLogReopenKeepsLSNAboveFloor(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes 1 clamps to the minimum, so every record-bearing
	// segment is past the rotation threshold and a header-only one
	// never is.
	cfg := WALConfig{Fsync: "never", SegmentBytes: 1, CheckpointInterval: -1, CheckpointWALBytes: -1}
	open := func() *Sharded {
		t.Helper()
		s, err := OpenSharded(dir, walOpts(WithWAL(cfg))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := make(map[int64]int64)

	// Generation 1: writes only; the final drain rotates the last
	// records into a sealed segment.
	s := newWALSharded(t, dir, cfg)
	for i := int64(0); i < 50; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		ref[i] = i
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 2: the checkpoint covers every logged record, so its
	// publish truncates all sealed segments; only the header-only
	// active one survives the close.
	s = open()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, floor := s.LastCheckpoint()
	if floor == 0 {
		t.Fatal("checkpoint published no LSN floor")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want a single header-only segment after full truncation, have %v (%v)", segs, err)
	}

	// Generation 3: the reopened log holds zero records; fresh writes
	// must land strictly above the floor.
	s = open()
	if got := s.m.WAL().LastLSN(); got < floor {
		t.Fatalf("reopened log seeded LSN %d below the persisted floor %d", got, floor)
	}
	for i := int64(1000); i < 1050; i++ {
		if err := s.Insert(i, -i); err != nil {
			t.Fatal(err)
		}
		ref[i] = -i
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Generation 4: every acked write of generation 3 must replay.
	s = open()
	defer s.Close()
	checkContents(t, s, ref)
}

// TestWALSchedulerAutoCheckpoint drives the WAL-bytes threshold: under
// sustained writes the scheduler must start checkpoint rounds on its
// own and published rounds must truncate sealed segments.
func TestWALSchedulerAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := newWALSharded(t, dir, WALConfig{
		Fsync:              "never",
		SegmentBytes:       2048,
		CheckpointWALBytes: 4096,
		CheckpointInterval: -1,
		SchedulerPeriod:    2 * time.Millisecond,
	}, WithBackgroundRebalancing(2))
	defer s.Close()

	deadline := time.Now().Add(30 * time.Second)
	var st Stats
	for i := int64(0); ; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		if i%64 == 0 {
			st = s.Stats()
			if st.AutoCheckpoints >= 2 && st.WALTruncations >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("scheduler made no progress: %+v", st)
			}
		}
	}
	if st.WALRotations == 0 {
		t.Fatal("no segment rotations under 2 KiB segments")
	}
	if _, lsn := s.LastCheckpoint(); lsn == 0 {
		t.Fatal("published round did not advance the recovery LSN")
	}
}

// TestWALFaultMatrix injects a failure on every WAL edge through the
// facade and asserts the uniform contract: the write that hit the fault
// reports an error (or the background edge counts it), the
// corresponding Stats counter increments, and the store keeps serving
// with its recovery point intact.
func TestWALFaultMatrix(t *testing.T) {
	dir := t.TempDir()
	cfg := WALConfig{CheckpointInterval: -1, CheckpointWALBytes: -1, SegmentBytes: 1 << 20}
	s := newWALSharded(t, dir, cfg)
	defer s.Close()
	l := s.m.WAL()

	for i := int64(0); i < 100; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Append fault: the write is rejected before staging.
	l.InjectFault(wal.FaultAppend, 1)
	if err := s.Insert(200, 200); !errors.Is(err, vmem.ErrFaultInjected) {
		t.Fatalf("append fault: got %v", err)
	}
	// Sync fault: the write's commit wave fails; Wait surfaces it.
	l.InjectFault(wal.FaultSync, 1)
	if err := s.Insert(201, 201); !errors.Is(err, vmem.ErrFaultInjected) {
		t.Fatalf("sync fault: got %v", err)
	}
	// Rotate fault: background edge — no writer error, counted, retried.
	l.InjectFault(wal.FaultRotate, 1)
	if err := s.Insert(202, 202); err != nil {
		t.Fatalf("rotate fault must not fail the writer: %v", err)
	}
	// Truncate fault: the next published round's truncation fails;
	// the round itself still publishes.
	l.InjectFault(wal.FaultTruncate, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with truncate fault: %v", err)
	}

	st := s.Stats()
	if st.WALAppendFailures != 1 || st.WALSyncFailures != 1 {
		t.Fatalf("failure counters: %+v", st)
	}
	// The rotate fault fires lazily (rotation happens when a segment
	// fills); with 1 MiB segments it stays armed — disarm by injecting 0
	// is not needed, just check the store serves.
	for i := int64(300); i < 400; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatalf("store must keep serving after faults: %v", err)
		}
	}
	if _, ok := s.Find(202); !ok {
		t.Fatal("write applied before background fault went missing")
	}
	if st.Checkpoints == 0 {
		t.Fatal("recovery point was not maintained across faults")
	}
}

// TestWALTruncateFaultCounts pins that an injected truncation failure
// increments the truncation-failure counter when a publish actually has
// sealed segments to remove.
func TestWALTruncateFaultCounts(t *testing.T) {
	dir := t.TempDir()
	s := newWALSharded(t, dir, WALConfig{
		Fsync: "never", SegmentBytes: 1024,
		CheckpointInterval: -1, CheckpointWALBytes: -1,
	})
	defer s.Close()

	for i := int64(0); i < 400; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.WALRotations == 0 {
		t.Fatalf("expected rotations before truncation test: %+v", st)
	}
	s.m.WAL().InjectFault(wal.FaultTruncate, 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALTruncateFailures != 1 {
		t.Fatalf("truncate failures = %d, want 1", st.WALTruncateFailures)
	}
	// The next publish retries and the dead segments go.
	if err := s.Insert(10_000, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALTruncations == 0 {
		t.Fatalf("truncation never succeeded: %+v", st)
	}
}

// TestWALTornTailRecovery cuts the log's physical tail at arbitrary
// byte offsets and asserts recovery yields an exact op prefix — the
// single-writer stream makes every cut land between or inside
// sequential records, so the recovered map must hold keys 0..M-1 for
// some M, never a gap.
func TestWALTornTailRecovery(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	cfg := WALConfig{Fsync: "never", CheckpointInterval: -1, CheckpointWALBytes: -1}
	s := newWALSharded(t, dir, cfg)
	for i := int64(0); i < n; i++ {
		if err := s.Insert(i, i*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	sort.Strings(segs)
	lastRel, err := filepath.Rel(dir, segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	// Each cut runs against a fresh copy of the pristine tree, so the
	// corpora stay independent.
	for _, cut := range []int64{1, 7, 19, info.Size() / 2, info.Size() - genesisGuess} {
		work := t.TempDir()
		copyTree(t, dir, work)
		last := filepath.Join(work, lastRel)
		if err := os.Truncate(last, info.Size()-cut); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSharded(work, walOpts(WithWAL(cfg))...)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		m := int64(s.Size())
		if m > n {
			t.Fatalf("cut %d: recovered %d ops, wrote %d", cut, m, n)
		}
		for i := int64(0); i < m; i++ {
			if v, ok := s.Find(i); !ok || v != i*3 {
				t.Fatalf("cut %d: recovered %d ops but op %d missing/wrong (%d,%v)", cut, m, i, v, ok)
			}
		}
		// Recovery truncated the torn bytes physically: the log serves
		// appends again.
		if err := s.Insert(int64(10_000+cut), 1); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// genesisGuess keeps the deepest cut from slicing into the segment
// header or the genesis record (those cases — a dropped segment, a
// truncated genesis — are covered in internal/wal).
const genesisGuess = 128

// copyTree copies the directory tree at src into dst (regular files
// only — the durability tree holds nothing else).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWALBitFlipRecovery flips a byte mid-log: the corrupt record fails
// its CRC and recovery stops at the last intact one — again an exact
// prefix, and the map keeps serving.
func TestWALBitFlipRecovery(t *testing.T) {
	const n = 300
	dir := t.TempDir()
	cfg := WALConfig{Fsync: "never", CheckpointInterval: -1, CheckpointWALBytes: -1}
	s := newWALSharded(t, dir, cfg)
	for i := int64(0); i < n; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	sort.Strings(segs)
	first := segs[0]
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// Flip past the header and genesis record so the log itself stays
	// openable; the flipped op record must not survive.
	off := 128
	if off >= len(b) {
		t.Skipf("segment too small (%d bytes) for a mid-log flip", len(b))
	}
	b[off] ^= 0x40
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err = OpenSharded(dir, walOpts(WithWAL(cfg))...)
	if err != nil {
		t.Fatalf("recover after bit flip: %v", err)
	}
	defer s.Close()
	m := int64(s.Size())
	if m >= n {
		t.Fatalf("flip at %d went unnoticed: recovered all %d ops", off, m)
	}
	for i := int64(0); i < m; i++ {
		if v, ok := s.Find(i); !ok || v != i {
			t.Fatalf("recovered %d ops but op %d missing", m, i)
		}
	}
	if err := s.Insert(9999, 1); err != nil {
		t.Fatalf("append after bit-flip recovery: %v", err)
	}
}

// TestWALRequiresDurability pins the construction contract.
func TestWALRequiresDurability(t *testing.T) {
	if _, err := NewSharded(2, WithWAL(WALConfig{})); err == nil {
		t.Fatal("WithWAL without WithDurability must fail")
	}
	// A bad WAL config is refused before anything touches the disk: no
	// half-built tree, no shard regions left open behind the error.
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := NewSharded(2, WithDurability(dir), WithWAL(WALConfig{Fsync: "bogus"})); err == nil {
		t.Fatal("unknown fsync policy must fail")
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed NewSharded left %s behind (stat: %v)", dir, err)
	}
}
