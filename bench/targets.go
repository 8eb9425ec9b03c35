package main

import (
	"fmt"
	"math"
	"net"
	"time"

	"rma"
	"rma/internal/core"
	"rma/internal/resp"
	"rma/internal/shard"
	"rma/internal/workload"
)

// outcome is what one executed request amounted to: keys moved (the
// numerator of keys_per_s), store operations attempted, and how many of
// them returned a wrong result.
type outcome struct{ keys, ops, failed int }

// target executes requests against one layer of the stack and checks
// every result against workload.ValueFor. An error means the layer
// itself broke (I/O, allocation); a wrong result is counted in failed.
type target interface {
	do(req *request) (outcome, error)
}

// --- single array: rma.Array and core.Array ---------------------------------

type arrayAPI interface {
	Insert(key, val int64) error
	Delete(key int64) (bool, error)
	Find(key int64) (int64, bool)
	GetBatch(keys []int64, out []core.Lookup) []core.Lookup
	Sum(lo, hi int64) (int, int64)
	CountRange(lo, hi int64) int
	ScanRange(lo, hi int64, yield func(key, val int64) bool)
}

// coreArray gives core.Array the facade's name for its batched lookup.
type coreArray struct{ *core.Array }

func (c coreArray) GetBatch(keys []int64, out []core.Lookup) []core.Lookup {
	return c.FindBatch(keys, out)
}

// arrayTarget drives a single unsharded array. On the embedded workload
// it makes the paper's calls (Insert, Delete, Find, Sum); as the bottom
// rung of a served workload it does what the server's commands amount
// to at the engine: SET is delete-then-insert, a burst of GETs is one
// batched lookup, SCAN is a bounded ordered scan.
type arrayTarget struct {
	a     arrayAPI
	spec  *workloadSpec
	looks []core.Lookup
	// Ladder timers: time and count of the Insert and Delete calls of
	// write requests, kept apart so the core rung can price them singly.
	split        bool
	insNs, delNs int64
	insN, delN   int64
}

func (t *arrayTarget) do(req *request) (outcome, error) {
	o := outcome{ops: req.ops()}
	switch req.class {
	case clsRead:
		o.keys = len(req.keys)
		if t.spec.embedded || len(req.keys) == 1 {
			for _, k := range req.keys {
				if v, ok := t.a.Find(k); !ok || v != workload.ValueFor(k) {
					o.failed++
				}
			}
			break
		}
		t.looks = t.a.GetBatch(req.keys, t.looks)
		for i, l := range t.looks {
			if !l.OK || l.Val != workload.ValueFor(req.keys[i]) {
				o.failed++
			}
		}
	case clsWrite, clsDel:
		o.keys = o.ops
		var t0, t1 time.Time
		if t.split {
			t0 = time.Now()
		}
		nDel := len(req.dels)
		for _, k := range req.dels {
			ok, err := t.a.Delete(k)
			if err != nil {
				return o, err
			}
			if !ok {
				o.failed++
			}
		}
		if !t.spec.embedded {
			nDel += len(req.keys)
			for _, k := range req.keys {
				if _, err := t.a.Delete(k); err != nil {
					return o, err
				}
			}
		}
		if t.split {
			t1 = time.Now()
		}
		for _, k := range req.keys {
			if err := t.a.Insert(k, workload.ValueFor(k)); err != nil {
				return o, err
			}
		}
		if t.split {
			t.delNs += t1.Sub(t0).Nanoseconds()
			t.delN += int64(nDel)
			t.insNs += time.Since(t1).Nanoseconds()
			t.insN += int64(len(req.keys))
		}
	case clsScan:
		for _, lo := range req.keys {
			if span := t.spec.scanSpan; span > 0 {
				hi := lo + int64(span)
				n, _ := t.a.Sum(lo, hi)
				o.keys += n
				if n == 0 || n != t.a.CountRange(lo, hi) {
					o.failed++
				}
				continue
			}
			var sc scanCheck
			sc.begin(lo)
			t.a.ScanRange(lo, math.MaxInt64, sc.visit)
			o.keys += sc.n
			if !sc.ok() {
				o.failed++
			}
		}
	}
	return o, nil
}

// scanCheck verifies one ordered scan as it streams: keys ascending from
// lo, every value ValueFor(key), exactly scanCount elements.
type scanCheck struct {
	prev int64
	n    int
	bad  bool
}

func (s *scanCheck) begin(lo int64) { *s = scanCheck{prev: lo} }

func (s *scanCheck) visit(k, v int64) bool {
	if k < s.prev || v != workload.ValueFor(k) {
		s.bad = true
	}
	s.prev = k
	s.n++
	return s.n < scanCount
}

func (s *scanCheck) ok() bool { return !s.bad && s.n == scanCount }

// --- sharded map: shard.Map and rma.Sharded ----------------------------------

type shardAPI interface {
	GetBatch(keys []int64, out []core.Lookup) []core.Lookup
	ApplyBatch(ops []shard.Op) (int, error)
	SnapshotScan(lo, hi int64, yield func(key, val int64) bool) bool
}

// rawMap gives shard.Map the facade's name for its snapshot scan.
type rawMap struct{ *shard.Map }

func (m rawMap) SnapshotScan(lo, hi int64, yield func(key, val int64) bool) bool {
	return m.SnapshotScanRange(lo, hi, yield)
}

// maxScanTries bounds the retries of a scan that reports a torn cut.
const maxScanTries = 8

// shardTarget makes the calls internal/server makes for each command
// run: one GetBatch per read burst (Find for a lone GET would skip the
// batch path the server always takes, so a lone key also goes through
// GetBatch), one ApplyBatch of delete+put pairs per SET run, one
// ApplyBatch per DEL command, one SnapshotScan per SCAN.
type shardTarget struct {
	m     shardAPI
	spec  *workloadSpec
	looks []core.Lookup
	ops   []shard.Op
}

func (t *shardTarget) do(req *request) (outcome, error) {
	o := outcome{ops: req.ops()}
	switch req.class {
	case clsRead:
		o.keys = len(req.keys)
		t.looks = t.m.GetBatch(req.keys, t.looks)
		for i, l := range t.looks {
			if !l.OK || l.Val != workload.ValueFor(req.keys[i]) {
				o.failed++
			}
		}
	case clsWrite:
		o.keys = o.ops
		t.ops = t.ops[:0]
		for _, k := range req.keys {
			t.ops = append(t.ops,
				shard.Op{Kind: shard.OpDelete, Key: k},
				shard.Op{Kind: shard.OpPut, Key: k, Val: workload.ValueFor(k)})
		}
		if _, err := t.m.ApplyBatch(t.ops); err != nil {
			return o, err
		}
		per := req.delsPerCmd(t.spec)
		for i := 0; i < len(req.dels); i += per {
			t.ops = t.ops[:0]
			for _, k := range req.dels[i : i+per] {
				t.ops = append(t.ops, shard.Op{Kind: shard.OpDelete, Key: k})
			}
			deleted, err := t.m.ApplyBatch(t.ops)
			if err != nil {
				return o, err
			}
			o.failed += per - deleted
		}
	case clsScan:
		for _, lo := range req.keys {
			var sc scanCheck
			for try := 0; try < maxScanTries; try++ {
				sc.begin(lo)
				if t.m.SnapshotScan(lo, math.MaxInt64, sc.visit) {
					break
				}
			}
			o.keys += sc.n
			if !sc.ok() {
				o.failed++
			}
		}
	default:
		return o, fmt.Errorf("bench: class %s has no sharded form", classNames[req.class])
	}
	return o, nil
}

// --- the wire: RESP over a net.Conn -----------------------------------------

// wireTarget is one client connection. A request is written as one
// pipelined burst and flushed once; the replies are then read and
// checked in command order.
type wireTarget struct {
	c    net.Conn
	w    *resp.Writer
	r    *resp.Reader
	spec *workloadSpec
	// torn counts scans that reported a torn cut and were sent again;
	// retry is the burst's scans waiting for that.
	torn  int64
	retry []int64
}

func newWireTarget(c net.Conn, spec *workloadSpec) *wireTarget {
	return &wireTarget{c: c, w: resp.NewWriter(c), r: resp.NewReader(c), spec: spec}
}

func encodeScan(w *resp.Writer, lo int64) {
	w.ArrayHeader(5)
	w.BulkString("SCAN")
	w.BulkInt(lo)
	w.BulkInt(math.MaxInt64)
	w.BulkString("COUNT")
	w.BulkInt(scanCount)
}

func encodeDel(w *resp.Writer, keys []int64) {
	w.ArrayHeader(1 + len(keys))
	w.BulkString("DEL")
	for _, k := range keys {
		w.BulkInt(k)
	}
}

// encode writes req's commands into w and returns how many it wrote.
func encode(w *resp.Writer, spec *workloadSpec, req *request) int {
	switch req.class {
	case clsRead:
		for _, k := range req.keys {
			w.Command("GET", k)
		}
		return len(req.keys)
	case clsWrite:
		for _, k := range req.keys {
			w.Command("SET", k, workload.ValueFor(k))
		}
		per := req.delsPerCmd(spec)
		for i := 0; i < len(req.dels); i += per {
			encodeDel(w, req.dels[i:i+per])
		}
		return req.cmds(spec)
	case clsScan:
		for _, lo := range req.keys {
			encodeScan(w, lo)
		}
		return len(req.keys)
	}
	return 0
}

func (t *wireTarget) do(req *request) (outcome, error) {
	o := outcome{ops: req.ops()}
	if encode(t.w, t.spec, req) == 0 {
		return o, fmt.Errorf("bench: class %s has no wire form", classNames[req.class])
	}
	if err := t.w.Flush(); err != nil {
		return o, err
	}
	switch req.class {
	case clsRead:
		o.keys = len(req.keys)
		for _, k := range req.keys {
			rep, err := t.r.ReadReply()
			if err != nil {
				return o, err
			}
			if v, ok := resp.ParseInt(rep.Bulk); rep.Kind != resp.BulkString || !ok || v != workload.ValueFor(k) {
				o.failed++
			}
		}
	case clsWrite:
		o.keys = o.ops
		for range req.keys {
			rep, err := t.r.ReadReply()
			if err != nil {
				return o, err
			}
			if rep.Kind != resp.SimpleString {
				o.failed++
			}
		}
		per := req.delsPerCmd(t.spec)
		for i := 0; i < len(req.dels); i += per {
			rep, err := t.r.ReadReply()
			if err != nil {
				return o, err
			}
			if rep.Kind != resp.Integer {
				o.failed += per
			} else {
				o.failed += per - int(rep.Int)
			}
		}
	case clsScan:
		// Every reply of the burst is read before any retry is sent, or
		// the retry's reply would queue behind the burst's remaining ones.
		t.retry = t.retry[:0]
		for _, lo := range req.keys {
			sc, consistent, err := t.readScan(lo)
			if err != nil {
				return o, err
			}
			if !consistent {
				t.retry = append(t.retry, lo)
				continue
			}
			o.keys += sc.n
			if !sc.ok() {
				o.failed++
			}
		}
		for _, lo := range t.retry {
			var sc scanCheck
			consistent := false
			for try := 1; !consistent && try < maxScanTries; try++ {
				t.torn++
				encodeScan(t.w, lo)
				err := t.w.Flush()
				if err == nil {
					sc, consistent, err = t.readScan(lo)
				}
				if err != nil {
					return o, err
				}
			}
			o.keys += sc.n
			if !sc.ok() {
				o.failed++
			}
		}
	}
	return o, nil
}

// readScan reads one SCAN reply: key,value pairs then the verdict.
func (t *wireTarget) readScan(lo int64) (sc scanCheck, consistent bool, err error) {
	sc.begin(lo)
	rep, err := t.r.ReadReply()
	if err != nil {
		return sc, false, err
	}
	if rep.Kind != resp.Array || rep.N%2 != 1 {
		return sc, false, fmt.Errorf("bench: SCAN answered kind %d n %d: %s", rep.Kind, rep.N, rep.Bulk)
	}
	for i := 0; i < rep.N/2; i++ {
		var kv [2]int64
		for j := range kv {
			el, err := t.r.ReadReply()
			if err != nil {
				return sc, false, err
			}
			v, ok := resp.ParseInt(el.Bulk)
			if el.Kind != resp.BulkString || !ok {
				sc.bad = true
			}
			kv[j] = v
		}
		sc.visit(kv[0], kv[1])
	}
	verdict, err := t.r.ReadReply()
	if err != nil {
		return sc, false, err
	}
	return sc, string(verdict.Bulk) == "consistent", nil
}

// ping times one PING round trip on the connection.
func (t *wireTarget) ping() (time.Duration, error) {
	t0 := time.Now()
	t.w.ArrayHeader(1)
	t.w.BulkString("PING")
	if err := t.w.Flush(); err != nil {
		return 0, err
	}
	rep, err := t.r.ReadReply()
	if err != nil {
		return 0, err
	}
	if rep.Kind != resp.SimpleString {
		return 0, fmt.Errorf("bench: PING answered %q", rep.Bulk)
	}
	return time.Since(t0), nil
}

var (
	_ arrayAPI = (*rma.Array)(nil)
	_ arrayAPI = coreArray{}
	_ shardAPI = (*rma.Sharded)(nil)
	_ shardAPI = rawMap{}
)
