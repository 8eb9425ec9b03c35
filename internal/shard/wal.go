package shard

import (
	"errors"
	"fmt"
	"time"

	"rma/internal/core"
	"rma/internal/vmem"
	"rma/internal/wal"
)

// The write-ahead log at the sharded layer: with EnableWAL, every
// acknowledged write is logged before its caller returns. A write
// appends its record to the log's group-commit core while still holding
// the owning shard's lock — so the record's LSN order matches the
// engine-application order exactly, per shard — and then waits for the
// record's commit wave outside the lock, so the fsync latency is paid
// without serializing the shard.
//
// Recovery composes the log with the checkpoint tree: each shard's
// checkpoint persists the LSN of the last record applied to it (the
// replay floor, core meta v2), and OpenMapWAL re-applies exactly the
// records above each shard's floor, in log order. Because LSN
// assignment, engine application and floor advancement all happen under
// the same shard lock, replay is a deterministic re-execution of the
// post-checkpoint suffix — no record is applied twice, none is skipped.
//
// The ack contract under faults: a write is acknowledged (returns nil)
// only after its record's commit wave is durable per the sync policy.
// When the log rejects an append (injected fault, allocation failure),
// the write has been applied in memory but is NOT logged — the caller
// gets the error and must not treat the write as durable; the last
// published recovery point is untouched. See DURABILITY.md for the full
// crash matrix.

// WALPolicy is the automatic checkpoint scheduler's thresholds: the
// scheduler (driven by internal/rebal's pool via SchedulerTick) starts
// a checkpoint round when any enabled threshold is crossed and new
// records have been logged since the last round it started. A zero
// value disables that threshold; all-zero disables the scheduler.
type WALPolicy struct {
	// DirtyPages fires when the shards' un-checkpointed page count
	// reaches this.
	DirtyPages int
	// Interval fires when this much time has passed since the last
	// published checkpoint.
	Interval time.Duration
	// WALBytes fires when the live log size reaches this.
	WALBytes int64
}

func (p WALPolicy) enabled() bool {
	return p.DirtyPages > 0 || p.Interval > 0 || p.WALBytes > 0
}

// EnableWAL creates a fresh write-ahead log rooted at dir (any previous
// log there is discarded) and routes every subsequent write through it.
// Requires EnableDurability first — the log's truncation floor comes
// from published checkpoints. Must be called before the map is shared
// across goroutines (the facade calls it at construction).
//
//rma:init
func (m *Map) EnableWAL(dir string, o wal.Options, p WALPolicy) error {
	if m.dur == nil {
		return fmt.Errorf("shard: WAL requires durability")
	}
	if m.wal != nil {
		return fmt.Errorf("shard: WAL already enabled")
	}
	l, err := wal.Create(dir, m.seps, 0, o)
	if err != nil {
		return err
	}
	m.wal = l
	m.walPolicy = p
	m.dur.lastPublish.Store(time.Now().UnixNano())
	return nil
}

// WAL returns the attached log (nil without EnableWAL) — a testing and
// diagnostics surface (fault injection, log stats).
func (m *Map) WAL() *wal.Log { return m.wal }

// CloseWAL drains staged records through one final commit wave and
// closes the log. The map keeps serving from memory but writes are no
// longer logged; call it after the last write. No-op without a WAL.
func (m *Map) CloseWAL() error {
	if m.wal == nil {
		return nil
	}
	return m.wal.Close()
}

// LastCheckpoint identifies the last published map-level recovery
// point: how many checkpoint rounds have published since this process
// built or opened the map, and the WAL LSN floor the latest one covers
// (0 without a WAL, or before any round logged records). The serving
// layer's LASTSAVE surface.
func (m *Map) LastCheckpoint() (rounds, lsn uint64) {
	if m.dur == nil {
		return 0, 0
	}
	return m.dur.mapSeq.Load(), m.dur.publishedLSN.Load()
}

// logOne stages one operation for shard j through the shard's one-op
// scratch. Caller holds s.mu.
//
//rma:noalloc
func (m *Map) logOne(s *cell, j int, op wal.Op) (wal.Ticket, error) {
	s.wop[0] = op
	return m.logOps(s, j, s.wop[:])
}

// logOps stages one record holding ops for shard j and advances the
// shard's replay floor. Caller holds s.mu — that lock is what makes the
// LSN order equal the application order for the shard; the returned
// ticket is waited on after release.
//
//rma:noalloc
func (m *Map) logOps(s *cell, j int, ops []wal.Op) (wal.Ticket, error) {
	t, err := m.wal.Append(j, ops)
	if err != nil {
		return wal.Ticket{}, err
	}
	s.a.SetWALLSN(t.LSN())
	return t, nil
}

// walFloorLocked returns the truncation floor a checkpoint of shard s
// establishes. Caller holds s.mu: appends for s happen under that lock,
// so every record of s in the log has LSN at most LastLSN here and all
// of them are applied — the checkpoint covers the entire log as far as
// this shard is concerned, including the case where the shard has never
// logged anything (its future records will land above LastLSN).
func (m *Map) walFloorLocked() uint64 {
	if m.wal == nil {
		return 0
	}
	return m.wal.LastLSN()
}

// afterPublish moves the WAL recovery floor forward after a map
// manifest published: the round's minimum per-shard floor is the LSN
// the new recovery point covers, and sealed segments wholly below it
// are dead weight. Runs on the round finisher, outside every shard
// lock. A truncation failure (injected or real) only counts in the log
// stats — the extra segments are retried after the next round.
func (m *Map) afterPublish() {
	d := m.dur
	d.lastPublish.Store(time.Now().UnixNano())
	if m.wal == nil {
		return
	}
	floor := d.walFloors[0].Load()
	for i := 1; i < len(d.walFloors); i++ {
		if f := d.walFloors[i].Load(); f < floor {
			floor = f
		}
	}
	d.publishedLSN.Store(floor)
	if floor > 0 {
		_ = m.wal.TruncateBelow(floor)
	}
}

// SchedulerTick is the automatic checkpoint scheduler's probe, called
// periodically by internal/rebal's pool. When the policy's thresholds
// say so — and records have actually been logged since the last round
// the scheduler started — it begins an asynchronous checkpoint round
// (RequestCheckpoint), which in turn truncates the log once published.
func (m *Map) SchedulerTick() {
	d := m.dur
	if m.wal == nil || d == nil || !m.walPolicy.enabled() || d.active.Load() {
		return
	}
	rec := m.wal.Stats().Records
	if rec == d.schedRecords.Load() {
		return // nothing logged since the last scheduler-started round
	}
	p := m.walPolicy
	fire := p.WALBytes > 0 && m.wal.LiveBytes() >= p.WALBytes
	if !fire && p.Interval > 0 {
		fire = time.Now().UnixNano()-d.lastPublish.Load() >= int64(p.Interval)
	}
	if !fire && p.DirtyPages > 0 {
		fire = m.dirtyPages() >= p.DirtyPages
	}
	if fire && m.RequestCheckpoint() {
		d.schedRecords.Store(rec)
		m.autoCheckpoints.Add(1)
	}
}

// dirtyPages sums the un-checkpointed page counts across shards (one
// shard lock at a time, like every aggregate).
func (m *Map) dirtyPages() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		n += s.a.DirtyPages()
		s.mu.Unlock()
	}
	return n
}

// OpenMapWAL recovers a sharded map from the checkpoint tree at dir
// plus the write-ahead log at walDir, restoring every acknowledged
// write: the last published checkpoint round is reopened exactly as
// OpenMap would, then the log's records above each shard's persisted
// replay floor are re-applied in log order. When no checkpoint has ever
// published, the log alone rebuilds the map — its genesis record names
// the shard separators. The recovered map logs and checkpoints
// incrementally, exactly like one built with EnableWAL.
//
//rma:init
func OpenMapWAL(dir, walDir string, cfg core.Config, o wal.Options, p WALPolicy) (*Map, error) {
	m, err := OpenMap(dir, cfg)
	switch {
	case err == nil:
		floors := make([]uint64, len(m.shards))
		var maxFloor uint64
		for i := range m.shards {
			floors[i] = m.shards[i].a.WALLSN()
			if floors[i] > maxFloor {
				maxFloor = floors[i]
			}
		}
		l, lerr := wal.Open(walDir, o)
		if errors.Is(lerr, wal.ErrNoLog) {
			// The tree predates the WAL (or the whole log was truncated
			// away after its last record was checkpointed): start a fresh
			// log above every floor.
			l, lerr = wal.Create(walDir, m.seps, maxFloor, o)
		}
		if lerr != nil {
			m.CloseDurability()
			return nil, lerr
		}
		// The surviving log can sit entirely below the checkpoint: after a
		// publish truncates the sealed segments, the active one may be
		// header-only (a forced wave rotates even with nothing staged), so
		// Open's record scan seeds the counter below the persisted floors.
		// Fresh appends must land strictly above every floor or the next
		// recovery would skip them.
		l.EnsureLSNAtLeast(maxFloor)
		if rerr := m.replayWAL(l, floors); rerr != nil {
			l.Close()
			m.CloseDurability()
			return nil, rerr
		}
		m.wal = l
	case errors.Is(err, vmem.ErrNoCheckpoint):
		l, lerr := wal.Open(walDir, o)
		if lerr != nil {
			if errors.Is(lerr, wal.ErrNoLog) {
				return nil, err // neither checkpoint nor log: nothing to recover
			}
			return nil, lerr
		}
		seps := l.Seps()
		if seps == nil {
			// Genesis truncated but no manifest published: the log cannot
			// name its own shards. Should be impossible — truncation only
			// follows a publish — so surface it rather than guess.
			l.Close()
			return nil, fmt.Errorf("shard: wal at %s has no genesis and no map manifest exists", walDir)
		}
		m2, nerr := New(cfg, seps)
		if nerr != nil {
			l.Close()
			return nil, nerr
		}
		if derr := m2.EnableDurability(dir); derr != nil {
			l.Close()
			return nil, derr
		}
		if rerr := m2.replayWAL(l, make([]uint64, len(m2.shards))); rerr != nil {
			l.Close()
			m2.CloseDurability()
			return nil, rerr
		}
		m = m2
		m.wal = l
	default:
		return nil, err
	}
	m.walPolicy = p
	m.dur.lastPublish.Store(time.Now().UnixNano())
	return m, nil
}

// replayWAL re-applies every logged record above its shard's floor, in
// log order — which per shard is LSN order, so this is a deterministic
// re-execution of each shard's post-checkpoint suffix. Runs at recovery
// time, before the map is shared.
//
//rma:init
func (m *Map) replayWAL(l *wal.Log, floors []uint64) error {
	return l.Replay(func(sh int, lsn uint64, ops []wal.Op) error {
		if sh < 0 || sh >= len(m.shards) {
			return fmt.Errorf("shard: wal names shard %d of a %d-shard map", sh, len(m.shards))
		}
		if lsn <= floors[sh] {
			return nil // covered by the shard's checkpoint
		}
		s := &m.shards[sh]
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, op := range ops {
			var err error
			if op.Kind == wal.OpPut {
				err = s.a.Insert(op.Key, op.Val)
			} else {
				_, err = s.a.Delete(op.Key)
			}
			if err != nil {
				return err
			}
		}
		s.a.SetWALLSN(lsn)
		return nil
	})
}
