package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestStreamHashFollowsSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		loaded := 4096
		a, b := streamHash(w, 7, loaded, 200), streamHash(w, 7, loaded, 200)
		if a != b {
			t.Errorf("%s: same seed gave hashes %x and %x", w.name, a, b)
		}
		if c := streamHash(w, 8, loaded, 200); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %x", w.name, a)
		}
	}
}

func TestStreamIsStationary(t *testing.T) {
	// Every pattern cycle must leave the FIFO as full as it found it, or
	// the store would drift in size inside a measured phase.
	for i := range workloads {
		w := &workloads[i]
		s := newStream(w, 1, 0, 4096)
		s.prime()
		want := s.live
		var req request
		for n := 0; n < 50*len(w.pattern); n++ {
			s.next(&req)
			if s.live < 0 || s.live > len(s.fifo) {
				t.Fatalf("%s: FIFO holds %d of %d after request %d", w.name, s.live, len(s.fifo), n)
			}
			if (n+1)%len(w.pattern) == 0 && s.live != want {
				t.Fatalf("%s: FIFO holds %d after a cycle, want %d", w.name, s.live, want)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{ten, 0.50, 50},
		{ten, 0.99, 100},
		{ten, 0.90, 90},
		{ten, 0.91, 100},
		{ten, 0.01, 10},
		{[]int64{7}, 0.99, 7},
		{[]int64{1, 2, 3, 4}, 0.50, 2},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", c.sorted, c.p, got, c.want)
		}
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	if got := percentile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
}

func TestMedianAndSliceMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// One stalled slice out of five must not move the slice median.
	sl := []sliceStat{
		{wallNs: 1e9, keys: 1000}, {wallNs: 1e9, keys: 1010}, {wallNs: 9e9, keys: 1000},
		{wallNs: 1e9, keys: 990}, {wallNs: 1e9, keys: 1000},
	}
	if got := over(sl, (*sliceStat).keysPerSec); got != 1000 {
		t.Errorf("slice median keys/s = %v, want 1000", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) on the same data.
	cases := []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

// TestSchemaMatchesBenchmarkJSON pins the program's metric and workload
// names to BENCHMARK.json: a run must print exactly what the file lists.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	bs, err := readBenchmarkSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	var gotW []string
	for _, w := range bs.Workloads {
		gotW = append(gotW, w.Name)
	}
	if !slices.Equal(gotW, workloadNames()) {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", gotW, workloadNames())
	}
	var e2e, layers []metricSpec
	bounds := map[string]float64{}
	for _, m := range bs.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		bounds[m.Name] = m.Bound
		wantBetter := "lower"
		if m.Name == "keys_per_s" {
			wantBetter = "higher"
		}
		if m.Better != wantBetter {
			t.Errorf("%s: better = %q, want %q", m.Name, m.Better, wantBetter)
		}
	}
	// The footprint is a function of the seed and keeps the issue's bound;
	// set-up carries the largest bound, as the driver's contract asks, and
	// no bound may pass the contract's cap.
	if bounds["bytes_per_key"] != 0.02 {
		t.Errorf("bytes_per_key: bound %v, want 0.02", bounds["bytes_per_key"])
	}
	for name, b := range bounds {
		if b <= 0 || b > bounds["setup_s"] || b > 0.25 {
			t.Errorf("%s: bound %v outside (0, setup_s's %v] or past 0.25", name, b, bounds["setup_s"])
		}
	}
	for _, m := range bs.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the program %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the program %v", layers, perLayer)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(top))
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !slices.Equal(keys, want) {
		t.Errorf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var paths []string
	if err := json.Unmarshal(top["paths"], &paths); err != nil || !slices.Equal(paths, []string{"bench"}) {
		t.Errorf("paths = %s, want [\"bench\"]", top["paths"])
	}
	var seconds int
	if err := json.Unmarshal(top["run_seconds"], &seconds); err != nil || seconds != refSeconds {
		t.Errorf("run_seconds = %s, want %d (the value the slice sizes assume)", top["run_seconds"], refSeconds)
	}
}

func smokeConfig(t *testing.T, w *workloadSpec, trace bool) *config {
	return &config{spec: w, seed: 3, seconds: refSeconds, scale: 0.01, trace: trace,
		walRoot: filepath.Join(t.TempDir(), "durable")}
}

// TestSmokeAllWorkloads runs every workload end to end at 1% scale, with
// and without the ladder: zero failed operations, every metric of the
// schema reported, and the layers a workload bypasses reading zero.
func TestSmokeAllWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(smokeConfig(t, w, false))
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Fatalf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			if len(rep.slices) != phaseSlices-warmSlices {
				t.Errorf("%d measured slices, want %d", len(rep.slices), phaseSlices-warmSlices)
			}
			res := rep.result()
			for _, m := range endToEnd {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", m.name, got, ok, m.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
			}
			if unit := rep.slices[0].cls[w.unit]; unit.reqs == 0 {
				t.Errorf("the request unit %s never ran", classNames[w.unit])
			}
		})
		t.Run(w.name+"/trace", func(t *testing.T) {
			cfg := smokeConfig(t, w, true)
			cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err := measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Fatalf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			res := rep.result()
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a finite value in %s", m.name, got, ok, m.unit)
				}
				layer, _, _ := strings.Cut(m.name, ".")
				if !w.durable && (layer == "wal" || layer == "vmem") && got.Value != 0 {
					t.Errorf("%s = %v on a workload without durability, want 0", m.name, got.Value)
				}
				if w.embedded && slices.Contains([]string{"shard", "rebal", "resp", "server", "tcp"}, layer) && got.Value != 0 {
					t.Errorf("%s = %v on the embedded workload, want 0", m.name, got.Value)
				}
			}
			if w.durable {
				for _, name := range []string{"wal.append_ns_per_rec", "wal.wait_p50_us", "wal.recs_per_wave", "wal.bytes_per_key",
					"vmem.checkpoint_ms", "vmem.disk_bytes_per_key", "vmem.reopen_s"} {
					if !(rep.layer[name] > 0) {
						t.Errorf("%s = %v on the durable workload, want > 0", name, rep.layer[name])
					}
				}
			}
			if rep.layer["core.find_ns"] <= 0 && w.readKeys > 0 {
				t.Errorf("core.find_ns = %v, want > 0", rep.layer["core.find_ns"])
			}
			if top := rep.ladder.order[len(rep.ladder.order)-1]; (w.embedded && top != "rma") || (!w.embedded && top != "tcp") {
				t.Errorf("top rung %q", top)
			}
			spans, err := os.ReadFile(cfg.traceOut)
			if err != nil || !strings.Contains(string(spans), `"rung":"core"`) {
				t.Errorf("trace-out: err %v, %d bytes, want spans of every rung", err, len(spans))
			}
		})
	}
}

// TestEmbedCountsRepeat: with one goroutine doing all the work, two runs
// of one seed must agree on every engine counter and on the footprint.
func TestEmbedCountsRepeat(t *testing.T) {
	w := workloadByName("embed-paper")
	a, err := measure(smokeConfig(t, w, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(smokeConfig(t, w, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.counts) == 0 || !maps.Equal(a.counts, b.counts) {
		t.Errorf("counts differ between two runs of one seed:\n%v\n%v", a.counts, b.counts)
	}
}

func TestResultLineKeys(t *testing.T) {
	rep := &report{cfg: &config{spec: &workloads[0]}, attempted: 10, e2e: map[string]float64{"setup_s": 1.5}}
	line, err := json.Marshal(rep.result())
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	if keys := slices.Sorted(maps.Keys(top)); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result line keys %v", keys)
	}
	if !strings.Contains(string(line), `"setup_s":{"value":1.5,"unit":"s"}`) {
		t.Errorf("result line %s", line)
	}
}
