package main

// The benchmark's contract with BENCHMARK.json: metric names and units,
// workload names and shapes. TestSchemaMatchesBenchmarkJSON pins the two
// to each other.

type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a -trace 0 run reports, in output order.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"keys_per_s", "keys/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"cpu_ns_per_key", "ns"},
	{"bytes_per_key", "bytes"},
}

// perLayer lists the metrics a -trace 1 run reports. The prefix before
// the first dot is the module (layer) the number belongs to.
var perLayer = []metricSpec{
	{"core.find_ns", "ns"},
	{"core.insert_ns", "ns"},
	{"core.delete_ns", "ns"},
	{"core.scan_ns_per_elem", "ns"},
	{"core.rebalances_per_kput", "1/kput"},
	{"core.copies_per_put", "1/put"},
	{"core.page_swaps_per_kput", "1/kput"},
	{"core.resizes", "count"},
	{"core.density", "ratio"},
	{"shard.find_ns_added", "ns"},
	{"shard.getbatch_ns_per_key", "ns"},
	{"shard.applybatch_ns_per_key", "ns"},
	{"shard.read_retries_per_mread", "1/mread"},
	{"shard.read_fallbacks", "count"},
	{"shard.imbalance", "ratio"},
	{"rebal.deferred_per_kput", "1/kput"},
	{"rebal.maintenance_runs", "count"},
	{"rebal.pending_end", "count"},
	{"rma.find_ns_added", "ns"},
	{"rma.applybatch_ns_added", "ns"},
	{"resp.parse_ns_per_cmd", "ns"},
	{"resp.reply_ns_per_cmd", "ns"},
	{"resp.bytes_per_cmd", "bytes"},
	{"server.pipe_ns_per_cmd", "ns"},
	{"server.read_coalesce", "cmds/batch"},
	{"server.write_coalesce", "cmds/batch"},
	{"server.errors", "count"},
	{"tcp.rtt_added_us", "us"},
	{"tcp.ping_us", "us"},
	{"wal.append_ns_per_rec", "ns"},
	{"wal.wait_p50_us", "us"},
	{"wal.recs_per_wave", "recs/wave"},
	{"wal.syncs_per_kkey", "1/kkey"},
	{"wal.bytes_per_key", "bytes"},
	{"wal.rotations", "count"},
	{"wal.truncations", "count"},
	{"vmem.checkpoints", "count"},
	{"vmem.checkpoint_ms", "ms"},
	{"vmem.checkpoint_pages", "count"},
	{"vmem.disk_bytes_per_key", "bytes"},
	{"vmem.reopen_s", "s"},
	{"go.allocs_per_kkey", "1/kkey"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_mb", "MB"},
	{"client.gen_ns_per_key", "ns"},
	{"client.read_p50_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.write_p50_us", "us"},
	{"client.write_p99_us", "us"},
	{"client.scan_p50_us", "us"},
	{"client.scan_p99_us", "us"},
	{"trace.overhead_pct", "%"},
}

// class is a request class: what one closed-loop request does.
type class uint8

const (
	clsRead  class = iota // point reads of loaded keys
	clsWrite              // upserts (updates and fresh keys) plus paired FIFO deletes
	clsScan               // range scans
	clsDel                // FIFO deletes on their own (embed-paper only)
	nClasses
)

var classNames = [nClasses]string{"read", "write", "scan", "del"}

// Slicing of a measured phase: fixed op counts, first warmSlices discarded.
const (
	phaseSlices = 16
	warmSlices  = 2
	// refSeconds is the -seconds value the reqsPerSec figures below were
	// sized for; other values scale every slice's op count linearly.
	refSeconds = 30
	// fifoBursts is W: a fresh key is deleted this many write requests
	// after it was inserted (per stream).
	fifoBursts  = 64
	scanCount   = 1024 // SCAN ... COUNT on the wire
	storeShards = 8    // shards of every served store
)

// workloadSpec is one workload: store shape, request shapes and the
// cyclic class schedule. Everything a run does follows from the spec,
// -seed, -seconds and -scale.
type workloadSpec struct {
	name, why string
	embedded  bool // rma.Array in-process, no shards/server
	durable   bool // WithDurability + WithWAL
	keys      int  // loaded keys at -scale 1
	conns     int  // closed-loop streams (connections)
	zipfReads bool // read keys scrambled Zipf(1) instead of uniform
	// Request shapes.
	readKeys     int  // keys per read request
	writeUpdates int  // SETs of loaded keys per write request
	writeFresh   int  // SETs of fresh spatially-skewed keys per write request
	writeDels    int  // FIFO DELs per write request
	bulkDel      bool // the write request's DELs travel as one multi-key DEL
	delKeys      int  // FIFO deletes per del request
	scans        int  // ranges per scan request
	// scanSpan > 0 bounds each range to [lo, lo+scanSpan] (embedded Sum);
	// 0 scans upward from lo until scanCount elements came back.
	scanSpan uint64
	pattern  []class
	unit     class // the request unit p50_us/p90_us time
	// reqsPerSec is one stream's request rate on the reference 2-vCPU box;
	// it sizes a slice to ≈ seconds/16 there. A constant, never measured
	// at run time: the work of a run is a function of its flags alone.
	reqsPerSec float64
}

const domainPercent = ^uint64(0) / 100

var workloads = []workloadSpec{
	{
		name:     "embed-paper",
		why:      "the paper's experiment on one rma.Array: skewed inserts, FIFO deletes, finds, 1% range sums; only core works",
		embedded: true, keys: 4 << 20, conns: 1,
		readKeys: 64, writeFresh: 64, delKeys: 64, scans: 1, scanSpan: domainPercent,
		// Four insert and four delete groups to two find groups and one sum
		// put the time near 35/25/20/20 % insert/delete/find/scan.
		pattern: []class{clsWrite, clsDel, clsRead, clsWrite, clsDel, clsWrite, clsDel, clsRead, clsWrite, clsDel, clsScan},
		unit:    clsWrite, reqsPerSec: 38500,
	},
	{
		name: "serve-point",
		why:  "one unpipelined GET per round trip over loopback TCP, Zipf keys: syscalls, wake-ups and RESP dominate, engine bypassed",
		keys: 4 << 20, conns: 2, zipfReads: true,
		readKeys: 1,
		pattern:  []class{clsRead},
		unit:     clsRead, reqsPerSec: 53000,
	},
	{
		name: "serve-churn",
		why:  "pipelined bursts of 64 uniform GETs, skewed SET+DEL and SCANs: parse, coalescing, engine and rebalancer dominate, syscalls amortised",
		keys: 4 << 20, conns: 2,
		readKeys: 64, writeFresh: 32, writeDels: 32, scans: 4,
		pattern: []class{clsRead, clsWrite, clsRead, clsWrite, clsRead, clsScan, clsWrite, clsRead},
		unit:    clsRead, reqsPerSec: 3300,
	},
	{
		name:    "serve-durable",
		why:     "3 connections send bursts of 16 SETs plus paired DELs under WAL fsync=always on tmpfs with byte-triggered checkpoints: the only workload where wal and vmem.FileRegion work",
		durable: true, keys: 2 << 20, conns: 3,
		writeUpdates: 8, writeFresh: 8, writeDels: 8, bulkDel: true,
		pattern: []class{clsWrite},
		unit:    clsWrite, reqsPerSec: 10500,
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// fifoPrime is how many fresh keys each stream inserts during set-up so
// FIFO deletes always find a key that is fifoBursts requests old.
func (w *workloadSpec) fifoPrime() int {
	return fifoBursts * max(w.writeDels, w.delKeys)
}

// sliceReqs is the per-stream request count of one slice: a whole number
// of pattern cycles, so every slice does exactly the same class mix.
func (w *workloadSpec) sliceReqs(seconds int, scale float64) int {
	cycle := len(w.pattern)
	n := w.reqsPerSec * float64(seconds) / phaseSlices * scale
	return max(1, int(n/float64(cycle)+0.5)) * cycle
}
