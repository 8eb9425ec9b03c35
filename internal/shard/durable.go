package shard

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"

	"rma/internal/core"
	"rma/internal/vmem"
)

// Durability at the sharded layer: each shard checkpoints its own
// vmem.FileRegion independently (see internal/core/durable.go), and the
// map binds the K per-shard epochs into one crash-consistent unit with
// a map-level CHECKPOINT manifest — the shard-epoch vector plus the
// separator table, checksummed and published by atomic rename.
//
// The protocol is two-phase without any global pause:
//
//  1. A checkpoint round begins (RequestCheckpoint or CheckpointAll):
//     every shard is flagged. Each shard is then checkpointed at a
//     quiesce point — under its own lock, with its deferred-rebalance
//     backlog empty — either by a maintenance worker (MaintainShard
//     picks the flag up once the backlog drains) or synchronously by
//     CheckpointAll. Shards keep serving between and during other
//     shards' checkpoints; only one shard is locked at a time.
//  2. When the last shard of the round lands, the finisher publishes
//     the map manifest naming the K new epochs — outside every shard
//     lock. Recovery (OpenMap) reads that vector and reopens each shard
//     at exactly the named epoch, so a crash mid-round recovers the
//     previous round's state on every shard: per-shard epochs published
//     after the map manifest are orphans that the next checkpoint
//     retires.
//
// The retention handshake that makes step 2 safe: each shard checkpoint
// passes keep = the epoch the last *published map manifest* named for
// that shard, so the region retains it until a newer map manifest
// supersedes it — a shard is never left unable to serve the epoch the
// map-level recovery point demands.
//
// Coordination state is all atomics (per-shard request flags, one
// remaining-count). The shard lock already serializes each shard's
// engine; adding a map-level lock would couple shards that the whole
// design keeps independent (see CONCURRENCY.md).

const (
	mapManifestName  = "CHECKPOINT"
	mapManifestMagic = "RMAMAP01"
)

var mapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// errBox wraps errors for atomic.Value (which requires one concrete type).
type errBox struct{ err error }

// durState is the map's durability coordination block, created by
// EnableDurability/OpenMap before the map is shared and immutable as a
// pointer afterwards (like Map.notify).
type durState struct {
	dir     string
	regions []*vmem.FileRegion

	// One checkpoint round in flight at a time: active guards the round,
	// pending flags the shards still to checkpoint, remaining counts them
	// down, epochs collects what each shard published. failed poisons the
	// round (no map manifest) while still letting it drain.
	active    atomic.Bool
	pending   []atomic.Bool
	remaining atomic.Int64
	epochs    []atomic.Uint64
	failed    atomic.Bool

	// keep[i] is the epoch the last published map manifest named for
	// shard i — the retention floor passed to every shard checkpoint.
	// Written only by the round finisher (publish), read by the next
	// round's checkpointers; the active-flag handoff orders the accesses.
	keep []uint64

	// WAL coordination (zero-valued without EnableWAL): walFloors[i] is
	// the log LSN shard i's latest checkpoint covers (see
	// walFloorLocked), written by the shard's round claimant under the
	// shard lock and read by the round finisher; publishedLSN is the
	// minimum floor the last published manifest covers — the map's
	// recovery LSN; lastPublish (unix nanos) and schedRecords gate the
	// automatic checkpoint scheduler.
	walFloors    []atomic.Uint64
	publishedLSN atomic.Uint64
	lastPublish  atomic.Int64
	schedRecords atomic.Uint64

	// mapSeq counts published map manifests; lastErr holds the most
	// recent round failure for CheckpointAll to surface.
	mapSeq      atomic.Uint64
	lastErr     atomic.Value // errBox
	failPublish atomic.Bool  // testing hook: fail the next map publish
}

func newDurState(dir string, k int) *durState {
	return &durState{
		dir:       dir,
		regions:   make([]*vmem.FileRegion, k),
		pending:   make([]atomic.Bool, k),
		epochs:    make([]atomic.Uint64, k),
		keep:      make([]uint64, k),
		walFloors: make([]atomic.Uint64, k),
	}
}

func (d *durState) storeErr(err error) { d.lastErr.Store(errBox{err}) }

func (d *durState) loadErr() error {
	if b, ok := d.lastErr.Load().(errBox); ok {
		return b.err
	}
	return nil
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", i))
}

// EnableDurability creates a fresh durability tree rooted at dir — one
// file region per shard plus the map-level manifest — and attaches each
// shard's array to its region. Any previous checkpoint history under
// dir is discarded. Must be called before the map is shared across
// goroutines (the facade calls it at construction).
//
//rma:init
func (m *Map) EnableDurability(dir string) error {
	if m.dur != nil {
		return fmt.Errorf("shard: durability already enabled")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// A stale map manifest must not survive a re-create: until the first
	// round publishes, recovery from this tree is meant to fail.
	if err := os.Remove(filepath.Join(dir, mapManifestName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	d := newDurState(dir, len(m.shards))
	for i := range m.shards {
		r, err := vmem.CreateFileRegion(shardDir(dir, i), m.shards[i].a.PageSlots())
		if err == nil {
			s := &m.shards[i]
			s.mu.Lock()
			err = s.a.AttachDurability(r)
			s.mu.Unlock()
		}
		if err != nil {
			for _, r := range d.regions {
				if r != nil {
					r.Close()
				}
			}
			return err
		}
		d.regions[i] = r
	}
	m.dur = d
	return nil
}

// Durable reports whether the map checkpoints to disk.
func (m *Map) Durable() bool { return m.dur != nil }

// ShardRegion returns shard i's file region (nil without durability) —
// a testing surface for fault injection.
func (m *Map) ShardRegion(i int) *vmem.FileRegion {
	if m.dur == nil {
		return nil
	}
	return m.dur.regions[i]
}

// PublishedCheckpoints returns how many map-level checkpoints have been
// published since this Map was built or opened.
func (m *Map) PublishedCheckpoints() uint64 {
	if m.dur == nil {
		return 0
	}
	return m.dur.mapSeq.Load()
}

// InjectPublishFault makes the next map-manifest publish fail (testing
// hook; the per-shard write path is covered by vmem's InjectFault).
func (m *Map) InjectPublishFault() {
	if m.dur != nil {
		m.dur.failPublish.Store(true)
	}
}

// InjectAllocFailure arms allocation-failure injection on shard i's
// engine (see core.Array.InjectAllocFailure). Testing hook.
func (m *Map) InjectAllocFailure(i, keysN, valsN int) {
	s := &m.shards[i]
	s.mu.Lock()
	s.a.InjectAllocFailure(keysN, valsN)
	s.mu.Unlock()
}

// RequestCheckpoint begins an asynchronous checkpoint round: every
// shard is flagged, and the maintenance workers (internal/rebal) fold
// each shard's checkpoint into their sweep once its deferred backlog is
// empty; the last shard's finisher publishes the map manifest. Returns
// false — without starting anything — when the map is not durable or a
// round is already in flight. The round's outcome is observable through
// PublishedCheckpoints and Stats (Checkpoints/CheckpointFailures).
func (m *Map) RequestCheckpoint() bool {
	d := m.dur
	if d == nil || !d.active.CompareAndSwap(false, true) {
		return false
	}
	m.beginRound()
	if m.notify != nil {
		m.notify()
	}
	return true
}

// CheckpointAll runs one full checkpoint round synchronously and
// returns once the map manifest is published: every shard's deferred
// backlog is flushed and its state checkpointed under its own lock (one
// shard at a time — readers and writers on other shards are never
// blocked). If an asynchronous round is already in flight, CheckpointAll
// helps it finish and then runs its own. On failure the map keeps
// serving from memory, the previous recovery point stays intact, and
// the next round retries the unpersisted pages.
func (m *Map) CheckpointAll() error {
	d := m.dur
	if d == nil {
		return core.ErrNotDurable
	}
	for !d.active.CompareAndSwap(false, true) {
		for i := range m.shards {
			m.checkpointShard(i)
		}
		runtime.Gosched()
	}
	seq := d.mapSeq.Load()
	m.beginRound()
	for i := range m.shards {
		m.checkpointShard(i)
	}
	// A maintenance worker may have claimed one of the round's shards
	// between beginRound and our sweep; wait for the round to settle.
	for d.active.Load() {
		runtime.Gosched()
	}
	if d.mapSeq.Load() == seq {
		if err := d.loadErr(); err != nil {
			return err
		}
		return fmt.Errorf("shard: checkpoint round did not publish")
	}
	return nil
}

// beginRound resets the round state. Caller holds the active flag.
func (m *Map) beginRound() {
	d := m.dur
	d.failed.Store(false)
	d.remaining.Store(int64(len(m.shards)))
	for i := range d.pending {
		d.epochs[i].Store(0)
		d.pending[i].Store(true)
	}
}

// checkpointShard claims shard i's slice of the current round, if still
// unclaimed, and checkpoints it at a quiesce point: deferred backlog
// flushed, under the shard lock. It is the one per-shard checkpoint
// step, shared by CheckpointAll's sweep and the pool-driven rounds
// (MaintainShard); claimed reports whether this call did the slice.
func (m *Map) checkpointShard(i int) (claimed bool, err error) {
	d := m.dur
	if d == nil || !d.pending[i].CompareAndSwap(true, false) {
		return false, nil
	}
	s := &m.shards[i]
	s.mu.Lock()
	err = flushDeferred(s)
	var epoch uint64
	if err == nil {
		// The checkpoint itself only reads the array and updates dirty
		// tracking — nothing reader-visible, so no version bump.
		epoch, err = s.a.Checkpoint(d.keep[i])
	}
	if err == nil {
		d.walFloors[i].Store(m.walFloorLocked())
	}
	s.mu.Unlock()
	m.finishShardCheckpoint(i, epoch, err)
	return true, err
}

// finishShardCheckpoint accounts one shard's checkpoint outcome and, on
// the round's last shard, publishes the map manifest — outside every
// shard lock, so the sync cost of the publish never extends a critical
// section.
func (m *Map) finishShardCheckpoint(i int, epoch uint64, err error) {
	d := m.dur
	if err != nil {
		d.failed.Store(true)
		d.storeErr(err)
	} else {
		d.epochs[i].Store(epoch)
	}
	if d.remaining.Add(-1) == 0 {
		if !d.failed.Load() {
			if perr := m.publishMapCheckpoint(); perr != nil {
				d.storeErr(perr)
			} else {
				d.mapSeq.Add(1)
				m.afterPublish()
			}
		}
		d.active.Store(false)
	}
}

// publishMapCheckpoint writes the map manifest naming the round's K
// epochs and moves the retention floor forward. Runs on the round
// finisher only.
func (m *Map) publishMapCheckpoint() error {
	d := m.dur
	if d.failPublish.CompareAndSwap(true, false) {
		return fmt.Errorf("shard: map publish: %w", vmem.ErrFaultInjected)
	}
	buf := encodeMapManifest(m.seps, d.epochs)
	path := filepath.Join(d.dir, mapManifestName)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: map publish: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("shard: map publish: %w", err)
	}
	if err := syncDir(d.dir); err != nil {
		return fmt.Errorf("shard: map publish: %w", err)
	}
	for i := range d.keep {
		d.keep[i] = d.epochs[i].Load()
	}
	return nil
}

func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CloseDurability closes every shard's file region. The map keeps
// serving from memory but can no longer checkpoint; call it after the
// last CheckpointAll.
func (m *Map) CloseDurability() error {
	d := m.dur
	if d == nil {
		return nil
	}
	var first error
	for _, r := range d.regions {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OpenMap recovers a sharded map from the durability tree at dir: the
// map manifest names one epoch per shard, and every shard reopens at
// exactly that epoch, so the map comes back as the atomic unit the last
// published round captured — regardless of how far a later, unpublished
// round had progressed when the process died. cfg must describe the
// same engine the checkpoints were taken with (see core.Open). The
// recovered map is durable and continues checkpointing incrementally.
//
//rma:init
func OpenMap(dir string, cfg core.Config) (*Map, error) {
	seps, epochs, err := readMapManifest(dir)
	if err != nil {
		return nil, err
	}
	m := &Map{seps: seps, shards: make([]cell, len(epochs))}
	d := newDurState(dir, len(epochs))
	fail := func(err error) (*Map, error) {
		for _, r := range d.regions {
			if r != nil {
				r.Close()
			}
		}
		return nil, err
	}
	for i := range m.shards {
		r, err := vmem.OpenFileRegion(shardDir(dir, i))
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		d.regions[i] = r
		a, err := core.Open(r, cfg, epochs[i])
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		m.shards[i].install(a)
		d.keep[i] = epochs[i]
	}
	m.dur = d
	return m, nil
}

// --- map manifest encoding --------------------------------------------------
//
//	magic "RMAMAP01"        8 bytes
//	version                 u32 (currently 1)
//	K                       u32 (number of shards)
//	seps                    (K-1) × i64
//	epochs                  K × u64
//	crc                     u32, CRC-32C of everything above

func encodeMapManifest(seps []int64, epochs []atomic.Uint64) []byte {
	k := len(epochs)
	b := make([]byte, 0, 8+4+4+len(seps)*8+k*8+4)
	b = append(b, mapManifestMagic...)
	b = mle32(b, 1)
	b = mle32(b, uint32(k))
	for _, s := range seps {
		b = mle64(b, uint64(s))
	}
	for i := range epochs {
		b = mle64(b, epochs[i].Load())
	}
	return mle32(b, crc32.Checksum(b, mapCastagnoli))
}

func readMapManifest(dir string) (seps []int64, epochs []uint64, err error) {
	b, err := os.ReadFile(filepath.Join(dir, mapManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, fmt.Errorf("shard: %s: %w", dir, vmem.ErrNoCheckpoint)
		}
		return nil, nil, err
	}
	bad := fmt.Errorf("shard: malformed map manifest (%d bytes)", len(b))
	if len(b) < 8+4+4+4 || string(b[:8]) != mapManifestMagic {
		return nil, nil, bad
	}
	body, sum := b[:len(b)-4], mget32(b[len(b)-4:])
	if crc32.Checksum(body, mapCastagnoli) != sum {
		return nil, nil, fmt.Errorf("shard: map manifest checksum mismatch")
	}
	p := body[8:]
	if v := mget32(p); v != 1 {
		return nil, nil, fmt.Errorf("shard: unsupported map manifest version %d", v)
	}
	k := int(mget32(p[4:]))
	p = p[8:]
	if k < 1 || len(p) != (k-1)*8+k*8 {
		return nil, nil, bad
	}
	seps = make([]int64, k-1)
	for i := range seps {
		seps[i] = int64(mget64(p))
		p = p[8:]
		if i > 0 && seps[i] < seps[i-1] {
			return nil, nil, bad
		}
	}
	epochs = make([]uint64, k)
	for i := range epochs {
		epochs[i] = mget64(p)
		p = p[8:]
		if epochs[i] == 0 {
			return nil, nil, bad
		}
	}
	return seps, epochs, nil
}

func mle32(b []byte, x uint32) []byte {
	return append(b, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
}

func mle64(b []byte, x uint64) []byte {
	b = mle32(b, uint32(x))
	return mle32(b, uint32(x>>32))
}

func mget32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func mget64(b []byte) uint64 {
	return uint64(mget32(b)) | uint64(mget32(b[4:]))<<32
}
