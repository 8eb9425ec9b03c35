package rma

import (
	"fmt"
	"path/filepath"
	"time"

	"rma/internal/core"
	"rma/internal/shard"
	"rma/internal/vmem"
	"rma/internal/wal"
)

// Durability on the facade: WithDurability(dir) makes an Array or a
// Sharded map checkpoint its state to a directory tree, and
// OpenArray/OpenSharded recover from it. A checkpoint is explicit
// (Checkpoint, or RequestCheckpoint for the asynchronous sharded form)
// and crash-consistent: it is published by one atomic rename, so a
// crash at any instant — mid-write, mid-fsync, mid-rename — recovers
// exactly the last published checkpoint, never a torn state. Between
// checkpoints the structure runs at full in-memory speed; a checkpoint
// persists only the pages dirtied since the previous one.
//
// Failures degrade gracefully: a failed checkpoint (disk full, I/O
// error) leaves the structure serving from memory with nothing lost,
// the previous on-disk checkpoint intact, and the next Checkpoint
// retrying the unpersisted pages. See DURABILITY.md for the on-disk
// format and the full crash matrix.

// Errors surfaced by the durability layer, re-exported for errors.Is.
var (
	// ErrNoCheckpoint reports that the directory passed to
	// OpenArray/OpenSharded holds no published checkpoint.
	ErrNoCheckpoint = vmem.ErrNoCheckpoint
	// ErrNotDurable reports a Checkpoint call on a structure built
	// without WithDurability.
	ErrNotDurable = core.ErrNotDurable
	// ErrAllocFailed reports a physical page allocation failure; the
	// structure stays consistent and keeps serving.
	ErrAllocFailed = vmem.ErrAllocFailed
)

// WithDurability makes the structure durable: its state checkpoints
// into the directory tree rooted at dir (created if absent; any
// previous checkpoint history under dir is discarded — use
// OpenArray/OpenSharded to resume from one). Checkpoints are explicit:
// call Checkpoint at the moments that must survive a crash — or compose
// WithWAL to log every write and checkpoint automatically.
func WithDurability(dir string) Option {
	return func(o *options) { o.durDir = dir }
}

// WALConfig configures the write-ahead log (WithWAL). The zero value is
// a working default: fsync on every commit wave, 4 MiB segments, and an
// automatic checkpoint every minute or 64 MiB of log, whichever comes
// first.
type WALConfig struct {
	// Fsync selects when commit waves reach stable storage: "always"
	// (the default — every acknowledged write is on disk), "everysec"
	// (group fsync about once a second; a crash loses at most the last
	// second of acknowledged writes), or "never" (the OS decides; for
	// benchmarks and bulk loads).
	Fsync string
	// SegmentBytes rotates log segments at this size (default 4 MiB).
	// Smaller segments truncate at finer granularity.
	SegmentBytes int
	// CheckpointDirtyPages, CheckpointInterval and CheckpointWALBytes
	// are the automatic checkpoint scheduler's thresholds: a background
	// checkpoint round starts when any of them is crossed and new
	// records have been logged since the last round. Zero picks the
	// default (interval one minute, WAL bytes 64 MiB, dirty pages
	// unlimited); a negative value disables that threshold. The
	// scheduler needs WithBackgroundRebalancing — its rounds are driven
	// by the maintenance pool.
	CheckpointDirtyPages int
	CheckpointInterval   time.Duration
	CheckpointWALBytes   int64
	// SchedulerPeriod is the cadence at which the maintenance pool
	// probes the thresholds (default 250ms; tests tighten it to force
	// scheduler activity quickly).
	SchedulerPeriod time.Duration
}

// WithWAL composes a write-ahead log with WithDurability (requiring it;
// NewSharded fails without): every Insert, Delete and ApplyBatch is
// appended to a group-commit log before it returns, so acknowledged
// writes survive a crash at any instant — OpenSharded (with the same
// WithWAL option) replays the log's suffix over the last published
// checkpoint. Checkpoints bound replay work and truncate the log; the
// automatic scheduler keeps both going without explicit Checkpoint
// calls. New ignores the option (the sequential Array has no logging
// path). See DURABILITY.md for the record format, the ack contract and
// the crash matrix.
func WithWAL(c WALConfig) Option {
	return func(o *options) { o.wal = &c }
}

// walDirFor places the log beside the checkpoint tree it composes with.
func walDirFor(durDir string) string { return filepath.Join(durDir, "wal") }

// walOptions translates the facade config into the log's options.
func (c WALConfig) walOptions() (wal.Options, error) {
	o := wal.Options{SegmentBytes: c.SegmentBytes}
	switch c.Fsync {
	case "", "always":
		o.Sync = wal.SyncAlways
	case "everysec":
		o.Sync = wal.SyncEverySec
	case "never":
		o.Sync = wal.SyncNever
	default:
		return o, fmt.Errorf("rma: unknown fsync policy %q (want always, everysec or never)", c.Fsync)
	}
	return o, nil
}

// policy translates the scheduler thresholds, applying defaults.
func (c WALConfig) policy() shard.WALPolicy {
	p := shard.WALPolicy{
		DirtyPages: c.CheckpointDirtyPages,
		Interval:   c.CheckpointInterval,
		WALBytes:   c.CheckpointWALBytes,
	}
	if p.Interval == 0 {
		p.Interval = time.Minute
	}
	if p.WALBytes == 0 {
		p.WALBytes = 64 << 20
	}
	if p.DirtyPages < 0 {
		p.DirtyPages = 0
	}
	if p.Interval < 0 {
		p.Interval = 0
	}
	if p.WALBytes < 0 {
		p.WALBytes = 0
	}
	return p
}

// Checkpoint persists the array's current state as its new recovery
// point and returns nil once it is durably on disk. Incremental: only
// pages dirtied since the last checkpoint are written. On error the
// array keeps serving from memory, the previous recovery point stays
// intact, and the next Checkpoint retries.
func (r *Array) Checkpoint() error {
	_, err := r.a.Checkpoint(0)
	return err
}

// Durable reports whether the array was built with WithDurability.
func (r *Array) Durable() bool { return r.a.Durable() }

// Close releases the array's durability files (no-op without
// WithDurability). It does not checkpoint: state since the last
// Checkpoint call is not persisted.
func (r *Array) Close() error {
	if reg := r.a.Region(); reg != nil {
		return reg.Close()
	}
	return nil
}

// OpenArray recovers an Array from the durability tree at dir,
// restoring the last checkpointed state. opts must describe the same
// engine the checkpoints were taken with (the page size is verified;
// tuning options are free to differ). The recovered array is
// durable and continues checkpointing incrementally into dir.
func OpenArray(dir string, opts ...Option) (*Array, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	reg, err := vmem.OpenFileRegion(dir)
	if err != nil {
		return nil, err
	}
	a, err := core.Open(reg, o.cfg, 0)
	if err != nil {
		reg.Close()
		return nil, err
	}
	return &Array{a: a}, nil
}

// Checkpoint persists the sharded map's current state as one atomic
// recovery point: every shard is checkpointed at a quiesce point under
// its own lock — one shard at a time, readers and writers on other
// shards never blocked — and a map-level manifest binding the shard
// checkpoints together is published last, by one atomic rename. On
// error the map keeps serving from memory and the previous recovery
// point stays intact.
func (s *Sharded) Checkpoint() error { return s.m.CheckpointAll() }

// RequestCheckpoint starts a checkpoint round in the background: the
// maintenance pool (WithBackgroundRebalancing) folds each shard's
// checkpoint into its sweep once that shard's deferred backlog drains,
// and the last shard's finisher publishes the recovery point. Returns
// false without starting anything when the map is not durable, no
// round can start (one already in flight), or there is no pool to
// drive it. Track completion with Stats().Checkpoints or call
// Checkpoint to force completion synchronously.
func (s *Sharded) RequestCheckpoint() bool {
	if s.pool == nil {
		return false
	}
	return s.m.RequestCheckpoint()
}

// Durable reports whether the map was built with WithDurability.
func (s *Sharded) Durable() bool { return s.m.Durable() }

// OpenSharded recovers a Sharded map from the durability tree at dir:
// the shard boundaries and every shard's state come back exactly as the
// last published Checkpoint captured them, regardless of how far later
// unpublished work had progressed when the process died. opts must
// describe the same engine the checkpoints were taken with; the
// recovered map is durable and continues checkpointing into dir.
func OpenSharded(dir string, opts ...Option) (*Sharded, error) {
	o := defaultOptions()
	for _, fn := range opts {
		fn(&o)
	}
	if o.durDir != "" && o.durDir != dir {
		return nil, fmt.Errorf("rma: OpenSharded(%q) conflicts with WithDurability(%q)", dir, o.durDir)
	}
	var m *shard.Map
	var err error
	if o.wal != nil {
		var wo wal.Options
		if wo, err = o.wal.walOptions(); err != nil {
			return nil, err
		}
		m, err = shard.OpenMapWAL(dir, walDirFor(dir), o.cfg, wo, o.wal.policy())
	} else {
		m, err = shard.OpenMap(dir, o.cfg)
	}
	if err != nil {
		return nil, err
	}
	return finishSharded(m, o), nil
}

// LastCheckpoint identifies the last published recovery point: how many
// checkpoint rounds have published since this process built or opened
// the map, and the WAL LSN the latest one covers (0 without WithWAL).
func (s *Sharded) LastCheckpoint() (rounds, lsn uint64) { return s.m.LastCheckpoint() }
