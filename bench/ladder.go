package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	"rma/internal/core"
	"rma/internal/rebal"
	"rma/internal/resp"
	"rma/internal/shard"
	"rma/internal/wal"
	"rma/internal/workload"
)

// The cost ladder. A -trace 1 run replays the workload's op stream
// through each layer's public functions, bottom up, and prices a layer
// as its rung minus the rung below:
//
//	core     one core.Array holding the same keys, called directly
//	shard    shard.Map, 8 shards, seqlock reads, background rebalancer
//	wal      bare wal.Log Append+Wait of the same records (durable only)
//	rma      the rma.Sharded facade (the run's live store)
//	resp     resp.Reader/Writer on in-memory buffers, no store
//	server   server.ServeConn over net.Pipe
//	tcp      the run's loopback TCP connections, spans on
//
// core and shard own fresh stores and see the stream from its first
// request, exactly as the untraced phase did; rma, server and tcp share
// the live store, so each continues the streams where the last stopped
// (the stream is stationary, so any stretch of it costs the same). The
// embedded workload has two rungs: core.Array, then the rma.Array facade.
const (
	rungSlices = 8 // the first is warm-up
	pingCount  = 2000
)

// span is one request as a rung saw it; times are ns since the tracer's
// origin.
type span struct {
	start, end int64
	id         uint64
	keys       int32
	class      class
}

// spanBuf holds one stream's spans on one rung, preallocated so that
// recording a span is an append that never grows. One goroutine writes it.
type spanBuf struct {
	rung   string
	stream uint64
	origin time.Time
	spans  []span
}

func (b *spanBuf) add(c class, id uint64, start, end time.Time, keys int) {
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, span{
			start: start.Sub(b.origin).Nanoseconds(), end: end.Sub(b.origin).Nanoseconds(),
			id: id, keys: int32(keys), class: c,
		})
	}
}

// tracer owns every span buffer of a ladder.
type tracer struct {
	origin time.Time
	bufs   []*spanBuf
}

func (t *tracer) buf(rung string, stream uint64, n int) *spanBuf {
	b := &spanBuf{rung: rung, stream: stream, origin: t.origin, spans: make([]span, 0, n)}
	t.bufs = append(t.bufs, b)
	return b
}

// writeTo writes every span as one JSON line.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, b := range t.bufs {
		for _, s := range b.spans {
			fmt.Fprintf(w, `{"rung":%q,"class":%q,"stream":%d,"id":%d,"start_ns":%d,"end_ns":%d,"keys":%d}`+"\n",
				b.rung, classNames[s.class], b.stream, s.id, s.start, s.end, s.keys)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungCost prices one rung: ns per key, per command and per request,
// each the median over the rung's measured slices, for one class or
// (class == nClasses) all of them.
type rungCost struct{ perKey, perCmd, perReq [nClasses + 1]float64 }

func costOf(sl []sliceStat) (c rungCost) {
	for cl := class(0); cl <= nClasses; cl++ {
		sum := func(s *sliceStat) classSum {
			if cl == nClasses {
				return s.sumOf()
			}
			return s.sumOf(cl)
		}
		c.perKey[cl] = over(sl, func(s *sliceStat) float64 { t := sum(s); return ratio(float64(t.ns), float64(t.keys)) })
		c.perCmd[cl] = over(sl, func(s *sliceStat) float64 { t := sum(s); return ratio(float64(t.ns), float64(t.cmds)) })
		c.perReq[cl] = over(sl, func(s *sliceStat) float64 { t := sum(s); return ratio(float64(t.ns), float64(t.reqs)) })
	}
	return c
}

// ladder is the priced rungs of one run and the self times they imply.
type ladder struct {
	order    []string // rung names, bottom up
	rungs    map[string]rungCost
	untraced rungCost // the untraced measured phase, for the overhead
	// self is each layer's ns per key over all classes; it telescopes to
	// the top rung, and sumPct is that sum over the untraced phase's
	// latency per key, in percent.
	self   map[string]float64
	sumPct float64
}

// runRung drives workers through one rung and prices it.
func runRung(name string, workers []*worker, reqs int, serial bool, tr *tracer) (rungCost, error) {
	for _, w := range workers {
		w.spans = tr.buf(name, w.st.id, rungSlices*reqs)
		for c := range w.lat {
			if cap(w.lat[c]) < reqs {
				w.lat[c] = make([]int64, 0, reqs)
			}
		}
	}
	sl, err := runPhase(workers, rungSlices, reqs, serial)
	if err != nil {
		return rungCost{}, fmt.Errorf("rung %s: %w", name, err)
	}
	for _, s := range sl {
		if s.failed > 0 {
			return rungCost{}, fmt.Errorf("rung %s: %d wrong results", name, s.failed)
		}
	}
	return costOf(sl[1:]), nil
}

// freshWorkers makes workers over new streams (from the first request)
// bound to the targets mk returns.
func freshWorkers(cfg *config, mk func() target) []*worker {
	streams, _ := newStreams(cfg)
	ws := make([]*worker, len(streams))
	for i, st := range streams {
		ws[i] = &worker{st: st, tg: mk()}
	}
	return ws
}

// continued makes workers that carry on the rig's streams (and so the
// live store's FIFO state) against other targets.
func continued(r *rig, mk func() target) []*worker {
	ws := make([]*worker, len(r.workers))
	for i, w := range r.workers {
		ws[i] = &worker{st: w.st, tg: mk()}
	}
	return ws
}

// ladderRun is the state the rungs of one ladder share.
type ladderRun struct {
	cfg    *config
	lad    *ladder
	l      map[string]float64 // the report's per-layer metrics
	tr     *tracer
	reqs   int     // requests per stream per rung slice
	primes []int64 // what set-up inserted besides the loaded keys
}

// rung runs one rung and records its price.
func (lr *ladderRun) rung(name string, workers []*worker, serial bool) (rungCost, error) {
	c, err := runRung(name, workers, lr.reqs, serial, lr.tr)
	if err == nil {
		lr.lad.order = append(lr.lad.order, name)
		lr.lad.rungs[name] = c
	}
	return c, err
}

func runLadder(cfg *config, r *rig, rep *report) (*ladder, error) {
	spec := cfg.spec
	lad := &ladder{rungs: map[string]rungCost{}, self: map[string]float64{}, untraced: costOf(rep.slices)}
	lr := &ladderRun{cfg: cfg, lad: lad, l: rep.layer, tr: &tracer{origin: time.Now()},
		reqs: max(cfg.sliceReqs()/4/len(spec.pattern), 1) * len(spec.pattern)}
	_, lr.primes = newStreams(cfg)
	l, all := lr.l, nClasses

	core, err := lr.coreRung()
	if err != nil {
		return nil, err
	}
	l["client.gen_ns_per_key"] = genCost(cfg, lr.reqs*(rungSlices-1))
	lad.self["core"] = core.perKey[all]

	if spec.embedded {
		// The facade rung is the live array, spans on.
		top, err := lr.rung("rma", r.workers, true)
		if err != nil {
			return nil, err
		}
		l["rma.find_ns_added"] = top.perKey[clsRead] - core.perKey[clsRead]
		lad.self["rma"] = top.perKey[all] - core.perKey[all]
		lad.finish(l, top, lr.tr, cfg)
		return lad, nil
	}

	sh, err := lr.shardRung()
	if err != nil {
		return nil, err
	}
	l["shard.find_ns_added"] = sh.perKey[clsRead] - core.perKey[clsRead]
	l["shard.getbatch_ns_per_key"] = sh.perKey[clsRead]
	l["shard.applybatch_ns_per_key"] = sh.perKey[clsWrite]
	lad.self["shard"] = sh.perKey[all] - core.perKey[all]

	var log rungCost // stays zero without durability
	if spec.durable {
		if log, err = lr.walRung(); err != nil {
			return nil, err
		}
		lad.self["wal"] = log.perKey[all]
	}

	// rma: the facade, on the live store.
	facade, err := lr.rung("rma", continued(r, func() target { return &shardTarget{m: r.db, spec: spec} }), false)
	if err != nil {
		return nil, err
	}
	l["rma.find_ns_added"] = facade.perKey[clsRead] - sh.perKey[clsRead]
	l["rma.applybatch_ns_added"] = facade.perKey[clsWrite] - sh.perKey[clsWrite] - log.perKey[clsWrite]
	lad.self["rma"] = facade.perKey[all] - sh.perKey[all] - log.perKey[all]

	// resp: parse and reply formatting alone, no store.
	rc := respCosts(cfg, lr.reqs*(rungSlices-1))
	l["resp.parse_ns_per_cmd"] = rc.parseNs
	l["resp.reply_ns_per_cmd"] = rc.replyNs
	l["resp.bytes_per_cmd"] = rc.bytesPerCmd
	respPerCmd := rc.parseNs + rc.replyNs

	// server: a session per stream over net.Pipe.
	var pipes []net.Conn
	defer func() {
		for _, c := range pipes {
			c.Close()
		}
	}()
	piped, err := lr.rung("server", continued(r, func() target {
		client, srvEnd := net.Pipe()
		pipes = append(pipes, client)
		go r.srv.ServeConn(srvEnd) // ends when client closes; srv.Close waits for it
		return newWireTarget(client, spec)
	}), false)
	if err != nil {
		return nil, err
	}
	l["server.pipe_ns_per_cmd"] = piped.perCmd[all] - facade.perCmd[all] - respPerCmd

	// tcp: the run's own connections with spans on.
	tcp, err := lr.rung("tcp", r.workers, false)
	if err != nil {
		return nil, err
	}
	l["tcp.rtt_added_us"] = (tcp.perReq[all] - piped.perReq[all]) / 1e3
	pings := make([]int64, pingCount)
	for i := range pings {
		d, err := r.wires[0].ping()
		if err != nil {
			return nil, err
		}
		pings[i] = d.Nanoseconds()
	}
	p50, _, _ := latencyOf(pings)
	l["tcp.ping_us"] = p50 / 1e3

	respPerKey := respPerCmd * ratio(tcp.perKey[all], tcp.perCmd[all])
	lad.self["resp"] = respPerKey
	lad.self["server"] = piped.perKey[all] - facade.perKey[all] - respPerKey
	lad.self["tcp"] = tcp.perKey[all] - piped.perKey[all]
	lad.finish(l, tcp, lr.tr, cfg)
	return lad, nil
}

// coreRung: a single unsharded engine array, one goroutine.
func (lr *ladderRun) coreRung() (rungCost, error) {
	arr, err := core.New(core.DefaultConfig())
	if err != nil {
		return rungCost{}, err
	}
	if err := loadArray(arr.Insert, lr.cfg.seed, lr.cfg.loaded(), lr.primes); err != nil {
		return rungCost{}, err
	}
	tg := &arrayTarget{a: coreArray{arr}, spec: lr.cfg.spec, split: true}
	c, err := lr.rung("core", freshWorkers(lr.cfg, func() target { return tg }), true)
	if err != nil {
		return c, err
	}
	l := lr.l
	l["core.find_ns"] = c.perKey[clsRead]
	l["core.scan_ns_per_elem"] = c.perKey[clsScan]
	if lr.cfg.spec.embedded {
		l["core.insert_ns"] = c.perKey[clsWrite]
		l["core.delete_ns"] = c.perKey[clsDel]
	} else {
		l["core.insert_ns"] = ratio(float64(tg.insNs), float64(tg.insN))
		l["core.delete_ns"] = ratio(float64(tg.delNs), float64(tg.delN))
	}
	return c, nil
}

// shardRung: a raw shard.Map wired the way the facade wires it.
func (lr *ladderRun) shardRung() (rungCost, error) {
	m, err := shard.New(core.DefaultConfig(), shard.UniformSeps(storeShards))
	if err != nil {
		return rungCost{}, err
	}
	m.EnableLockFreeReads()
	pool := rebal.NewPool(m, runtime.GOMAXPROCS(0))
	m.EnableDeferredRebalancing(pool.Notify)
	pool.Start()
	err = loadSharded(m.ApplyBatch, lr.cfg.seed, lr.cfg.loaded(), lr.primes)
	if err == nil {
		err = m.FlushAll()
	}
	var c rungCost
	if err == nil {
		c, err = lr.rung("shard", freshWorkers(lr.cfg, func() target { return &shardTarget{m: rawMap{m}, spec: lr.cfg.spec} }), false)
	}
	if cerr := pool.Close(); err == nil {
		err = cerr
	}
	return c, err
}

// walRung: the bare log under the records the shard layer would stage.
func (lr *ladderRun) walRung() (rungCost, error) {
	dir, err := os.MkdirTemp(lr.cfg.walRoot, "rma-bench-wal-rung-")
	if err != nil {
		return rungCost{}, err
	}
	defer os.RemoveAll(dir)
	seps := shard.UniformSeps(storeShards)
	log, err := wal.Create(filepath.Join(dir, "wal"), seps, 0, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return rungCost{}, err
	}
	var tgs []*walTarget
	ws := freshWorkers(lr.cfg, func() target {
		tgs = append(tgs, &walTarget{log: log, seps: seps, spec: lr.cfg.spec})
		return tgs[len(tgs)-1]
	})
	c, err := lr.rung("wal", ws, false)
	written := log.Stats().BytesWritten
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c, err
	}
	var appendNs, recs, keys int64
	var waits []int64
	for _, t := range tgs {
		appendNs += t.appendNs
		recs += t.recs
		keys += t.keys
		waits = append(waits, t.waits...)
	}
	lr.l["wal.append_ns_per_rec"] = ratio(float64(appendNs), float64(recs))
	p50, _, _ := latencyOf(waits)
	lr.l["wal.wait_p50_us"] = p50 / 1e3
	lr.l["wal.bytes_per_key"] = ratio(float64(written), float64(keys))
	return c, nil
}

// finish compares the top rung with the untraced phase and writes the
// spans out.
func (lad *ladder) finish(l map[string]float64, top rungCost, spans *tracer, cfg *config) {
	all := nClasses
	var sum float64
	for _, v := range lad.self {
		sum += v
	}
	lad.sumPct = 100 * ratio(sum, lad.untraced.perKey[all])
	l["trace.overhead_pct"] = 100 * ratio(top.perKey[all]-lad.untraced.perKey[all], lad.untraced.perKey[all])
	if cfg.traceOut != "" {
		if err := spans.writeTo(cfg.traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench: trace-out:", err)
		}
	}
}

// print writes the ladder as a table: each rung's cost per key by class,
// then the self times.
func (lad *ladder) print(w io.Writer) {
	fmt.Fprintf(w, "ladder (ns per key; median over %d slices per rung)\n", rungSlices-1)
	fmt.Fprintf(w, "  %-10s %10s %10s %10s %10s %10s\n", "rung", "read", "write", "scan", "del", "all")
	row := func(name string, c rungCost) {
		fmt.Fprintf(w, "  %-10s %10.1f %10.1f %10.1f %10.1f %10.1f\n", name,
			c.perKey[clsRead], c.perKey[clsWrite], c.perKey[clsScan], c.perKey[clsDel], c.perKey[nClasses])
	}
	for _, name := range lad.order {
		row(name, lad.rungs[name])
	}
	row("untraced", lad.untraced)
	names := make([]string, 0, len(lad.self))
	for name := range lad.self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return lad.self[names[i]] > lad.self[names[j]] })
	fmt.Fprintf(w, "self time per key, all classes (sum = %.1f%% of the untraced phase):\n", lad.sumPct)
	top := lad.untraced.perKey[nClasses]
	for _, name := range names {
		fmt.Fprintf(w, "  %-10s %10.1f ns %6.1f%%\n", name, lad.self[name], 100*ratio(lad.self[name], top))
	}
}

// --- wal rung -------------------------------------------------------------------

// walTarget stages what the shard layer stages for a write request —
// one record per shard group of the SET run, then of each DEL command —
// and waits for the commit waves the way ApplyBatch does.
type walTarget struct {
	log  *wal.Log
	seps []int64
	spec *workloadSpec

	ops      []wal.Op
	groups   [][]wal.Op
	tickets  []wal.Ticket
	appendNs int64
	recs     int64
	keys     int64
	waits    []int64
}

func (t *walTarget) shardOf(key int64) int {
	i, _ := slices.BinarySearchFunc(t.seps, key, func(sep, k int64) int {
		if k < sep {
			return 1
		}
		return -1
	})
	return i
}

// commit appends ops grouped by shard and waits for every group.
func (t *walTarget) commit(ops []wal.Op) error {
	if t.groups == nil {
		t.groups = make([][]wal.Op, len(t.seps)+1)
	}
	for i := range t.groups {
		t.groups[i] = t.groups[i][:0]
	}
	for _, op := range ops {
		j := t.shardOf(op.Key)
		t.groups[j] = append(t.groups[j], op)
	}
	t.tickets = t.tickets[:0]
	t0 := time.Now()
	for j, g := range t.groups {
		if len(g) == 0 {
			continue
		}
		tk, err := t.log.Append(j, g)
		if err != nil {
			return err
		}
		t.tickets = append(t.tickets, tk)
		t.recs++
	}
	t1 := time.Now()
	for _, tk := range t.tickets {
		if err := t.log.Wait(tk); err != nil {
			return err
		}
	}
	t.appendNs += t1.Sub(t0).Nanoseconds()
	t.waits = append(t.waits, time.Since(t1).Nanoseconds())
	return nil
}

func (t *walTarget) do(req *request) (outcome, error) {
	o := outcome{ops: req.ops(), keys: req.ops()}
	if req.class != clsWrite {
		return o, fmt.Errorf("bench: class %s is not logged", classNames[req.class])
	}
	t.keys += int64(o.keys)
	ops := t.ops[:0]
	for _, k := range req.keys {
		ops = append(ops, wal.Op{Kind: wal.OpDelete, Key: k}, wal.Op{Kind: wal.OpPut, Key: k, Val: workload.ValueFor(k)})
	}
	if err := t.commit(ops); err != nil {
		return o, err
	}
	per := req.delsPerCmd(t.spec)
	for i := 0; i < len(req.dels); i += per {
		ops = ops[:0]
		for _, k := range req.dels[i : i+per] {
			ops = append(ops, wal.Op{Kind: wal.OpDelete, Key: k})
		}
		if err := t.commit(ops); err != nil {
			return o, err
		}
	}
	t.ops = ops
	return o, nil
}

// --- resp rung ------------------------------------------------------------------

// genCost prices the harness itself: ns per key to generate n requests
// of stream 0 and, on a served workload, encode them into io.Discard —
// the load generator's share of cpu_ns_per_key.
func genCost(cfg *config, n int) float64 {
	spec := cfg.spec
	var req request
	var keys int64
	st := newStream(spec, cfg.seed, 0, cfg.loaded())
	st.prime()
	discard := resp.NewWriter(io.Discard)
	// What a scan returns: scanCount elements, or the loaded keys a
	// bounded range is expected to hold.
	perScan := int64(scanCount)
	if spec.scanSpan > 0 {
		perScan = int64(float64(cfg.loaded()) * float64(spec.scanSpan) / float64(^uint64(0)))
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		st.next(&req)
		if !spec.embedded {
			encode(discard, spec, &req)
		}
		if req.class == clsScan {
			keys += int64(len(req.keys)) * perScan
		} else {
			keys += int64(req.ops())
		}
	}
	discard.Flush()
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(keys))
}

type respCost struct{ parseNs, replyNs, bytesPerCmd float64 }

// respCosts prices the protocol alone over n requests of stream 0:
// parsing the encoded commands back and formatting the replies the
// server would send, both on in-memory buffers.
func respCosts(cfg *config, n int) respCost {
	spec := cfg.spec
	var req request
	var cmds int64

	st := newStream(spec, cfg.seed, 0, cfg.loaded())
	st.prime()
	var wire, replies bytes.Buffer
	w := resp.NewWriter(&wire)
	reply := resp.NewWriter(&replies)
	var parseNs, replyNs, bytesMoved int64
	type parsedCmd struct {
		name [2]byte // GE(T), SE(T), DE(L), SC(AN)
		arg  int64   // first argument
		args int
	}
	var parsed []parsedCmd
	chunk := max(n/64, 1)
	for done := 0; done < n; done += chunk {
		wire.Reset()
		replies.Reset()
		for i := done; i < min(done+chunk, n); i++ {
			st.next(&req)
			cmds += int64(encode(w, spec, &req))
		}
		w.Flush()
		bytesMoved += int64(wire.Len())
		rd := resp.NewReader(bytes.NewReader(wire.Bytes()))
		t0 := time.Now()
		parsed = parsed[:0]
		for {
			cmd, err := rd.ReadCommand()
			if err != nil {
				break
			}
			k, _ := resp.ParseInt(cmd[1])
			parsed = append(parsed, parsedCmd{name: [2]byte{cmd[0][0], cmd[0][1]}, arg: k, args: len(cmd) - 1})
		}
		t1 := time.Now()
		for _, p := range parsed {
			switch p.name {
			case [2]byte{'G', 'E'}:
				reply.BulkInt(workload.ValueFor(p.arg))
			case [2]byte{'S', 'E'}:
				reply.SimpleString("OK")
			case [2]byte{'D', 'E'}:
				reply.Int(int64(p.args))
			case [2]byte{'S', 'C'}: // scanCount pairs and the verdict
				reply.ArrayHeader(2*scanCount + 1)
				for i := int64(0); i < scanCount; i++ {
					reply.BulkInt(p.arg + i)
					reply.BulkInt(workload.ValueFor(p.arg + i))
				}
				reply.BulkString("consistent")
			}
		}
		reply.Flush()
		parseNs += t1.Sub(t0).Nanoseconds()
		replyNs += time.Since(t1).Nanoseconds()
		bytesMoved += int64(replies.Len())
	}
	return respCost{
		parseNs:     ratio(float64(parseNs), float64(cmds)),
		replyNs:     ratio(float64(replyNs), float64(cmds)),
		bytesPerCmd: ratio(float64(bytesMoved), float64(cmds)),
	}
}
