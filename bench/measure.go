package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"rma"
	"rma/internal/server"
)

// traceSlices is how many measured slices the untraced phase of a
// -trace 1 run keeps; the rest of its time goes to the ladder.
const traceSlices = 6

// report is everything one run found.
type report struct {
	cfg               *config
	attempted, failed int64
	tornScans         int64 // SCANs that answered "torn" and were sent again
	setup             time.Duration
	slices            []sliceStat
	e2e               map[string]float64
	layer             map[string]float64 // nil on -trace 0
	counts            map[string]float64 // exact-repeat counters (embed-paper), for -aa
	ladder            *ladder
	elapsed           time.Duration
}

// snapshot is the counters read at the edges of the measured phase.
type snapshot struct {
	store rma.Stats
	srv   server.Stats
	mem   runtime.MemStats
}

func (r *rig) snapshot() (s snapshot) {
	s.store = r.storeStats()
	if r.srv != nil {
		s.srv = r.srv.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// measure runs one workload once: set-up, warm-up, measured phase,
// correctness checks, and on -trace 1 the cost ladder.
func measure(cfg *config) (*report, error) {
	start := time.Now()
	rep := &report{cfg: cfg, e2e: map[string]float64{}}
	r, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rep.setup = time.Since(start)
	defer func() {
		r.close()
		r.removeDir()
	}()

	reqs := cfg.sliceReqs()
	warm, err := runPhase(r.workers, warmSlices, reqs, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before := r.snapshot()
	measured := phaseSlices - warmSlices
	if cfg.trace {
		measured = traceSlices
	}
	rep.slices, err = runPhase(r.workers, measured, reqs, false)
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	after := r.snapshot()
	for _, wt := range r.wires {
		rep.tornScans += wt.torn
	}
	for _, s := range slices.Concat(warm, rep.slices) {
		rep.attempted += s.ops
		rep.failed += s.failed
	}

	pendingEnd := 0
	var shardSizes []int
	if r.db != nil {
		pendingEnd = r.db.PendingWindows()
		shardSizes = r.db.ShardSizes()
	}
	bytesPerKey, size, err := r.flushAndFootprint()
	if err != nil {
		return nil, err
	}

	unit := cfg.spec.unit
	rep.e2e["setup_s"] = rep.setup.Seconds()
	rep.e2e["keys_per_s"] = over(rep.slices, (*sliceStat).keysPerSec)
	rep.e2e["p50_us"] = over(rep.slices, func(s *sliceStat) float64 { return s.p50[unit] / 1e3 })
	rep.e2e["p90_us"] = over(rep.slices, func(s *sliceStat) float64 { return s.p90[unit] / 1e3 })
	rep.e2e["cpu_ns_per_key"] = over(rep.slices, (*sliceStat).cpuNsPerKey)
	rep.e2e["bytes_per_key"] = bytesPerKey

	if cfg.trace {
		rep.layer = map[string]float64{}
		for _, m := range perLayer {
			rep.layer[m.name] = 0
		}
		rep.statsLayers(before, after, pendingEnd, shardSizes, bytesPerKey)
		if cfg.spec.durable {
			t0 := time.Now()
			if err := r.db.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			rep.layer["vmem.checkpoint_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
			rep.layer["vmem.disk_bytes_per_key"] = float64(dirBytes(r.dir)) / float64(size)
		}
		lad, err := runLadder(cfg, r, rep)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		rep.ladder = lad
		// The ladder's upper rungs ran on the live store; its cardinality
		// is unchanged (every rung is as stationary as the phase).
		if _, size, err = r.flushAndFootprint(); err != nil {
			return nil, err
		}
	}

	// On the embedded workload a single goroutine does all the work, so
	// these repeat exactly for a seed; -aa asserts it.
	if cfg.spec.embedded {
		d := after.store
		rep.counts = map[string]float64{
			"core.inserts":    float64(d.Inserts - before.store.Inserts),
			"core.deletes":    float64(d.Deletes - before.store.Deletes),
			"core.rebalances": float64(d.Rebalances - before.store.Rebalances),
			"core.copies":     float64(d.ElementCopies - before.store.ElementCopies),
			"core.page_swaps": float64(d.PageSwaps - before.store.PageSwaps),
			"core.resizes":    float64(d.Resizes - before.store.Resizes),
			"bytes_per_key":   bytesPerKey,
		}
	}

	att, failed, reopen, err := r.verify(size)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	rep.attempted += int64(att)
	rep.failed += int64(failed)
	if cfg.trace {
		rep.layer["vmem.reopen_s"] = reopen.Seconds()
	}
	rep.elapsed = time.Since(start)
	return rep, nil
}

// statsLayers fills the per-layer metrics that are deltas of public
// Stats() counters over the measured phase.
func (rep *report) statsLayers(before, after snapshot, pendingEnd int, shardSizes []int, bytesPerKey float64) {
	l := rep.layer
	b, a := before.store, after.store
	d := func(x, y uint64) float64 { return float64(y - x) }
	var keys float64
	for i := range rep.slices {
		keys += float64(rep.slices[i].keys)
	}
	puts := d(b.Inserts, a.Inserts)
	l["core.rebalances_per_kput"] = ratio(d(b.Rebalances, a.Rebalances), puts/1e3)
	l["core.copies_per_put"] = ratio(d(b.ElementCopies, a.ElementCopies), puts)
	l["core.page_swaps_per_kput"] = ratio(d(b.PageSwaps, a.PageSwaps), puts/1e3)
	l["core.resizes"] = d(b.Resizes, a.Resizes)
	// Fill as the public surface shows it: 16 payload bytes per key over
	// the footprint (Sharded exposes no slot capacity).
	l["core.density"] = ratio(16, bytesPerKey)

	reads := d(b.LockFreeReads, a.LockFreeReads) + d(b.ReadFallbacks, a.ReadFallbacks)
	l["shard.read_retries_per_mread"] = ratio(d(b.ReadRetries, a.ReadRetries), reads/1e6)
	l["shard.read_fallbacks"] = d(b.ReadFallbacks, a.ReadFallbacks)
	if len(shardSizes) > 0 {
		total := 0
		for _, n := range shardSizes {
			total += n
		}
		l["shard.imbalance"] = ratio(float64(slices.Max(shardSizes)), float64(total)/float64(len(shardSizes)))
	}
	l["rebal.deferred_per_kput"] = ratio(d(b.DeferredWindows, a.DeferredWindows), puts/1e3)
	l["rebal.maintenance_runs"] = d(b.MaintenanceRuns, a.MaintenanceRuns)
	l["rebal.pending_end"] = float64(pendingEnd)

	sb, sa := before.srv, after.srv
	l["server.read_coalesce"] = ratio(d(sb.ReadBatched, sa.ReadBatched), d(sb.ReadBatches, sa.ReadBatches))
	l["server.write_coalesce"] = ratio(d(sb.WriteBatched, sa.WriteBatched), d(sb.WriteBatches, sa.WriteBatches))
	l["server.errors"] = d(sb.Errors, sa.Errors)

	l["wal.recs_per_wave"] = ratio(d(b.WALRecords, a.WALRecords), d(b.WALWaves, a.WALWaves))
	l["wal.syncs_per_kkey"] = ratio(d(b.WALSyncs, a.WALSyncs), keys/1e3)
	l["wal.rotations"] = d(b.WALRotations, a.WALRotations)
	l["wal.truncations"] = d(b.WALTruncations, a.WALTruncations)
	l["vmem.checkpoints"] = d(b.Checkpoints, a.Checkpoints)
	l["vmem.checkpoint_pages"] = d(b.CheckpointPages, a.CheckpointPages)

	l["go.allocs_per_kkey"] = ratio(d(before.mem.Mallocs, after.mem.Mallocs), keys/1e3)
	l["go.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	l["go.gc_pause_ms"] = d(before.mem.PauseTotalNs, after.mem.PauseTotalNs) / 1e6
	l["go.heap_mb"] = float64(after.mem.HeapAlloc) / (1 << 20)

	for c, name := range map[class]string{clsRead: "read", clsWrite: "write", clsScan: "scan"} {
		l["client."+name+"_p50_us"] = over(rep.slices, func(s *sliceStat) float64 { return s.p50[c] / 1e3 })
		l["client."+name+"_p99_us"] = over(rep.slices, func(s *sliceStat) float64 { return s.p99[c] / 1e3 })
	}
}
