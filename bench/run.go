package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rma"
	"rma/internal/core"
	"rma/internal/server"
	"rma/internal/workload"
)

// config is what the flags fix for one run.
type config struct {
	spec    *workloadSpec
	seed    uint64
	seconds int
	scale   float64
	trace   bool
	walRoot string // durable stores are made in fresh directories under it
	// onDevice: /dev/shm was not writable and the durable store fell back
	// to the checkout, where a request waits on the device and takes ≈ 7×
	// as long; a slice then does an eighth of the requests so that a run
	// still ends inside the contract's time limit.
	onDevice bool
	// traceOut, when set, receives the ladder's spans as JSON lines.
	traceOut string
}

func (c *config) loaded() int { return max(int(float64(c.spec.keys)*c.scale), 2048) }
func (c *config) sliceReqs() int {
	if c.onDevice {
		return c.spec.sliceReqs(c.seconds, c.scale/8)
	}
	return c.spec.sliceReqs(c.seconds, c.scale)
}

// shardedOptions is the rma.Sharded configuration every served workload uses.
func (c *config) shardedOptions(dir string) []rma.Option {
	opts := []rma.Option{rma.WithLockFreeReads(), rma.WithBackgroundRebalancing(-1)}
	if c.spec.durable {
		opts = append(opts, rma.WithDurability(dir), rma.WithWAL(rma.WALConfig{
			Fsync:              "always",
			CheckpointWALBytes: int64(max(float64(8<<20)*c.scale, 64<<10)),
			CheckpointInterval: -1,
		}))
	}
	return opts
}

// worker is one closed-loop stream bound to the target it drives.
type worker struct {
	st  *stream
	tg  target
	req request
	// Per-slice accumulators, reset by runPhase.
	lat               [nClasses][]int64
	cls               [nClasses]classSum
	keys, ops, failed int64
	err               error
	// spans, when non-nil, records one span per request (ladder runs).
	spans *spanBuf
}

func (w *worker) runSlice(reqs int) {
	for i := 0; i < reqs; i++ {
		w.st.next(&w.req)
		t0 := time.Now()
		o, err := w.tg.do(&w.req)
		t1 := time.Now()
		if err != nil {
			w.err = fmt.Errorf("stream %d request %d (%s): %w", w.st.id, w.req.id, classNames[w.req.class], err)
			return
		}
		cls, ns := w.req.class, t1.Sub(t0).Nanoseconds()
		w.lat[cls] = append(w.lat[cls], ns)
		w.cls[cls].add(classSum{reqs: 1, ns: ns, keys: int64(o.keys), cmds: int64(w.req.cmds(w.st.spec))})
		w.keys += int64(o.keys)
		w.ops += int64(o.ops)
		w.failed += int64(o.failed)
		if w.spans != nil {
			w.spans.add(cls, w.req.id, t0, t1, o.keys)
		}
	}
}

// runPhase runs slices of reqs requests per worker and returns one
// sliceStat per slice. Workers run a slice concurrently and meet at a
// barrier after it, where wall time and process CPU are read; the
// percentile sorting happens outside the timed region. serial runs the
// workers one after another instead (a target that is not safe for
// concurrent use).
func runPhase(workers []*worker, slices, reqs int, serial bool) ([]sliceStat, error) {
	out := make([]sliceStat, 0, slices)
	var merged []int64
	for s := 0; s < slices; s++ {
		for _, w := range workers {
			for c := range w.lat {
				w.lat[c] = w.lat[c][:0]
			}
			w.cls = [nClasses]classSum{}
			w.keys, w.ops, w.failed = 0, 0, 0
		}
		var wg sync.WaitGroup
		cpu0, t0 := cpuNs(), time.Now()
		for _, w := range workers[1:] {
			if serial {
				w.runSlice(reqs)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.runSlice(reqs)
			}()
		}
		workers[0].runSlice(reqs)
		wg.Wait()
		st := sliceStat{wallNs: time.Since(t0).Nanoseconds(), cpuNs: cpuNs() - cpu0}
		for _, w := range workers {
			if w.err != nil {
				return out, w.err
			}
			st.keys += w.keys
			st.ops += w.ops
			st.failed += w.failed
		}
		for c := class(0); c < nClasses; c++ {
			merged = merged[:0]
			for _, w := range workers {
				merged = append(merged, w.lat[c]...)
				st.cls[c].add(w.cls[c])
			}
			st.p50[c], st.p90[c], st.p99[c] = latencyOf(merged)
		}
		out = append(out, st)
	}
	return out, nil
}

// rig is one set-up store with its server, connections and streams.
type rig struct {
	cfg     *config
	arr     *rma.Array   // embedded workloads
	db      *rma.Sharded // served workloads
	srv     *server.Server
	served  chan error // result of srv.Serve
	dir     string     // durable store directory
	wires   []*wireTarget
	workers []*worker
}

// loadArray fills a single array with the loaded keys, then the streams'
// primes.
func loadArray(insert func(key, val int64) error, seed uint64, loaded int, primes []int64) error {
	for i := 0; i < loaded; i++ {
		k := loadedKey(seed, uint64(i))
		if err := insert(k, workload.ValueFor(k)); err != nil {
			return err
		}
	}
	for _, k := range primes {
		if err := insert(k, workload.ValueFor(k)); err != nil {
			return err
		}
	}
	return nil
}

// loadSharded fills a sharded store with the same keys through
// ApplyBatch, the store's ingestion path.
func loadSharded(apply func([]rma.BatchOp) (int, error), seed uint64, loaded int, primes []int64) error {
	const chunk = 4096
	ops := make([]rma.BatchOp, 0, chunk)
	flush := func() error {
		_, err := apply(ops)
		ops = ops[:0]
		return err
	}
	err := loadArray(func(k, v int64) error {
		ops = append(ops, rma.BatchOp{Kind: rma.OpPut, Key: k, Val: v})
		if len(ops) == chunk {
			return flush()
		}
		return nil
	}, seed, loaded, primes)
	if err != nil {
		return err
	}
	return flush()
}

// newStreams makes the workload's streams and returns the keys their
// FIFOs were primed with.
func newStreams(cfg *config) ([]*stream, []int64) {
	streams := make([]*stream, cfg.spec.conns)
	var primes []int64
	for id := range streams {
		streams[id] = newStream(cfg.spec, cfg.seed, id, cfg.loaded())
		primes = append(primes, streams[id].prime()...)
	}
	return streams, primes
}

// setUp builds and loads the store, starts the server, connects the
// streams, and ends with Flush and a GC so the measured phase starts
// from a quiet process. Its wall time is setup_s.
func setUp(cfg *config) (r *rig, err error) {
	r = &rig{cfg: cfg}
	defer func() {
		if err != nil {
			r.close()
			r.removeDir()
		}
	}()
	streams, primes := newStreams(cfg)
	r.workers = make([]*worker, len(streams))
	cap0 := cfg.sliceReqs()
	for id, st := range streams {
		w := &worker{st: st}
		for c := range w.lat {
			w.lat[c] = make([]int64, 0, cap0)
		}
		r.workers[id] = w
	}

	if cfg.spec.embedded {
		if r.arr, err = rma.New(); err != nil {
			return r, err
		}
		if err = loadArray(r.arr.Insert, cfg.seed, cfg.loaded(), primes); err != nil {
			return r, err
		}
		r.workers[0].tg = &arrayTarget{a: r.arr, spec: cfg.spec}
		runtime.GC()
		return r, nil
	}

	if cfg.spec.durable {
		if err = os.MkdirAll(cfg.walRoot, 0o755); err != nil {
			return r, err
		}
		if r.dir, err = os.MkdirTemp(cfg.walRoot, "rma-bench-"+cfg.spec.name+"-"); err != nil {
			return r, err
		}
	}
	if r.db, err = rma.NewSharded(storeShards, cfg.shardedOptions(r.dir)...); err != nil {
		return r, err
	}
	if err = loadSharded(r.db.ApplyBatch, cfg.seed, cfg.loaded(), primes); err != nil {
		return r, err
	}
	if cfg.spec.durable {
		if err = r.db.Checkpoint(); err != nil {
			return r, err
		}
	}
	r.srv = server.New(r.db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(ln) }()
	for _, w := range r.workers {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return r, err
		}
		wt := newWireTarget(c, cfg.spec)
		r.wires = append(r.wires, wt)
		w.tg = wt
		if _, err = wt.ping(); err != nil {
			return r, err
		}
	}
	if err = r.db.Flush(); err != nil {
		return r, err
	}
	runtime.GC()
	return r, nil
}

// close stops everything setUp started and waits for it; it leaves the
// durable directory in place for the reopen check (removeDir drops it).
func (r *rig) close() error {
	var errs []error
	for _, wt := range r.wires {
		errs = append(errs, wt.c.Close())
	}
	r.wires = nil
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
		if r.served != nil {
			errs = append(errs, <-r.served)
		}
		r.srv = nil
	}
	if r.db != nil {
		errs = append(errs, r.db.Close())
		r.db = nil
	}
	r.arr = nil
	return errors.Join(errs...)
}

func (r *rig) removeDir() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func (r *rig) storeStats() rma.Stats {
	if r.arr != nil {
		return r.arr.Stats()
	}
	return r.db.Stats()
}

func (r *rig) flushAndFootprint() (bytesPerKey float64, size int, err error) {
	if r.arr != nil {
		return float64(r.arr.FootprintBytes()) / float64(r.arr.Size()), r.arr.Size(), nil
	}
	if err := r.db.Flush(); err != nil {
		return 0, 0, err
	}
	size = r.db.Size()
	return float64(r.db.FootprintBytes()) / float64(size), size, nil
}

// expectedSize is the store's stationary cardinality: loaded keys plus
// every stream's FIFO.
func (r *rig) expectedSize() int {
	return r.cfg.loaded() + r.cfg.spec.conns*r.cfg.spec.fifoPrime()
}

// sampleKeys returns acked keys that must be present at the end of a
// run: a stride of the loaded keys and every key still in a FIFO.
func (r *rig) sampleKeys() []int64 {
	n := min(64<<10, r.cfg.loaded())
	keys := make([]int64, 0, n)
	stride := max(r.cfg.loaded()/n, 1)
	for i := 0; i < r.cfg.loaded() && len(keys) < n; i += stride {
		keys = append(keys, loadedKey(r.cfg.seed, uint64(i)))
	}
	for _, w := range r.workers {
		st := w.st
		for i := 0; i < st.live; i++ {
			keys = append(keys, st.fifo[(st.head+i)%len(st.fifo)])
		}
	}
	return keys
}

// checkSample counts how many of keys are missing or carry a wrong
// value in a batched lookup.
func checkSample(get func([]int64, []core.Lookup) []core.Lookup, keys []int64) (failed int) {
	for i, l := range get(keys, nil) {
		if !l.OK || l.Val != workload.ValueFor(keys[i]) {
			failed++
		}
	}
	return failed
}

// verify checks the store after the measured phase: cardinality, the
// sample of acked keys, on an embedded array the whole order and every
// value, and on a durable store the same again after close and reopen.
// It returns operations attempted and failed, and the reopen time.
func (r *rig) verify(size int) (attempted, failed int, reopen time.Duration, err error) {
	keys := r.sampleKeys()
	attempted = 1 + len(keys)
	if size != r.expectedSize() {
		failed++
	}
	if r.arr != nil {
		failed += checkSample(r.arr.GetBatch, keys)
		if err := r.arr.Validate(); err != nil {
			return attempted, failed, 0, err
		}
		attempted += size
		prev, n := int64(math.MinInt64), 0
		r.arr.Scan(func(k, v int64) bool {
			if k < prev || v != workload.ValueFor(k) {
				failed++
			}
			prev = k
			n++
			return true
		})
		if n != size {
			failed++
		}
		return attempted, failed, 0, nil
	}
	failed += checkSample(r.db.GetBatch, keys)
	if !r.cfg.spec.durable {
		return attempted, failed, 0, nil
	}
	// Every write in the sample was acked after its commit wave, so it
	// must survive a close without a final checkpoint.
	if err := r.close(); err != nil {
		return attempted, failed, 0, err
	}
	t0 := time.Now()
	db, err := rma.OpenSharded(r.dir, r.cfg.shardedOptions(r.dir)...)
	if err != nil {
		return attempted, failed, 0, fmt.Errorf("reopen: %w", err)
	}
	reopen = time.Since(t0)
	attempted += 1 + len(keys)
	if db.Size() != size {
		failed++
	}
	failed += checkSample(db.GetBatch, keys)
	return attempted, failed, reopen, db.Close()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (n int64) {
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
