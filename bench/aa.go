package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// The A/A self-check: the benchmark measuring itself. Every workload is
// run n times in each of two interleaved sets (ABAB…) of the same build
// and flags, each run a fresh process as the driver's are. A metric
// passes when the two set medians differ by no more than its bound in
// BENCHMARK.json and (setup_s excepted, as in the driver's rule) each
// set's interquartile range stays within the bound too.

// benchmarkSpec is the part of BENCHMARK.json the self-check reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the driver uses. xs needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

// childRun is what the self-check keeps of one child process.
type childRun struct {
	metrics map[string]float64
	counts  map[string]float64
}

// runChild runs this binary once on cfg and parses its output: the
// contract's result line (last) and, on embed-paper, the counts line.
func runChild(cfg config) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.Command(exe,
		"-workload", cfg.spec.name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-scale", strconv.FormatFloat(cfg.scale, 'g', -1, 64),
		"-wal-dir", cfg.walRoot)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return childRun{}, fmt.Errorf("%s: %w: %s", cfg.spec.name, err, strings.TrimSpace(stderr.String()))
	}
	run := childRun{metrics: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "counts "); ok {
			if err := json.Unmarshal([]byte(rest), &run.counts); err != nil {
				return run, fmt.Errorf("counts line: %w", err)
			}
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return run, fmt.Errorf("result line %q: %w", last, err)
	}
	if !res.Correct || res.Failed != 0 {
		return run, fmt.Errorf("%s: %d of %d operations failed", cfg.spec.name, res.Failed, res.Attempted)
	}
	for name, m := range res.Metrics {
		run.metrics[name] = m.Value
	}
	return run, nil
}

// selfCheck runs the A/A check and returns the process exit code.
func selfCheck(base config, only string, n int, specPath string, w io.Writer) int {
	bs, err := readBenchmarkSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa needs the bounds:", err)
		return 2
	}
	base.trace = false
	fails := 0
	fmt.Fprintf(w, "A/A self-check: %d runs per set, seed %d, seconds %d, scale %g\n", n, base.seed, base.seconds, base.scale)
	fmt.Fprintf(w, "%-14s %-15s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "gap", "IQR A", "IQR B", "bound", "verdict")
	for i := range workloads {
		cfg := base
		cfg.spec = &workloads[i]
		if only != "" && only != cfg.spec.name {
			continue
		}
		var sets [2][]childRun
		for r := 0; r < 2*n; r++ {
			run, err := runChild(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			sets[r%2] = append(sets[r%2], run)
		}
		for _, m := range bs.EndToEnd {
			var vals [2][]float64
			for s := range sets {
				for _, run := range sets[s] {
					vals[s] = append(vals[s], run.metrics[m.Name])
				}
			}
			ma, mb := median(vals[0]), median(vals[1])
			gap := math.Abs(ratio(mb-ma, ma))
			sa, sb := spread(vals[0]), spread(vals[1])
			verdict := "PASS"
			if gap > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "FAIL"
				fails++
			}
			fmt.Fprintf(w, "%-14s %-15s %14.4f %14.4f %7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				cfg.spec.name, m.Name, ma, mb, 100*gap, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		// A single goroutine does all of the embedded workload's work, so
		// its engine counters and footprint are a function of the seed.
		if cfg.spec.embedded {
			first := sets[0][0].counts
			verdict := "PASS"
			for s := range sets {
				for _, run := range sets[s] {
					if len(first) == 0 || !maps.Equal(first, run.counts) {
						verdict = "FAIL"
					}
				}
			}
			if verdict == "FAIL" {
				fails++
			}
			fmt.Fprintf(w, "%-14s %-15s identical in all %d runs: %s ", cfg.spec.name, "core.* counts", 2*n, verdict)
			for _, name := range slices.Sorted(maps.Keys(first)) {
				fmt.Fprintf(w, " %s=%s", name, strconv.FormatFloat(first[name], 'f', -1, 64))
			}
			fmt.Fprintln(w)
		}
	}
	if fails > 0 {
		fmt.Fprintf(w, "A/A self-check: %d FAIL\n", fails)
		return 1
	}
	fmt.Fprintln(w, "A/A self-check: all PASS")
	return 0
}
