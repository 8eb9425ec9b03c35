// Command bench is the repository's benchmark: four closed-loop
// workloads, each a fixed amount of work cut into equal slices, every
// timing reported as the median over slices. See README.md beside this
// file for the metrics, the workloads and how to read the output, and
// BENCHMARK.json at the repository root for names, units and bounds.
//
//	go run ./bench -workload serve-churn -seed 1            # end-to-end metrics
//	go run ./bench -workload serve-churn -seed 1 -trace 1   # per-layer metrics and the ladder
//	go run ./bench -aa 5                                    # A/A self-check of every workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envStamp says where and on what a result was measured.
type envStamp struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Kernel     string  `json:"kernel"`
	WALDir     string  `json:"wal_dir"`
	WALDirFS   string  `json:"wal_dir_fs"`
	LoadedKeys int     `json:"loaded_keys"`
	Conns      int     `json:"conns"`
	SliceReqs  int     `json:"slice_reqs_per_conn"`
	Slices     int     `json:"slices_measured"`
	StreamHash string  `json:"stream_hash"`
	ElapsedS   float64 `json:"elapsed_s"`
}

// commit names the source the binary was built from: the git commit
// when the working directory is the root of a repository (a driver's
// checkout is not), else "unknown". The ceiling keeps git from walking
// up into whatever repository happens to enclose a checkout.
func commit() string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}

func stampOf(rep *report) envStamp {
	cfg := rep.cfg
	// The wal dir is made on demand; stamp the filesystem of its nearest
	// existing ancestor. A workload without a durable store has neither.
	fs := ""
	if cfg.walRoot != "" {
		abs, _ := filepath.Abs(cfg.walRoot)
		for abs != filepath.Dir(abs) {
			if _, err := os.Stat(abs); err == nil {
				break
			}
			abs = filepath.Dir(abs)
		}
		fs = fsType(abs)
	}
	return envStamp{
		Workload: cfg.spec.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Kernel: kernel(), WALDir: cfg.walRoot, WALDirFS: fs,
		LoadedKeys: cfg.loaded(), Conns: cfg.spec.conns, SliceReqs: cfg.sliceReqs(), Slices: len(rep.slices),
		StreamHash: fmt.Sprintf("%016x", streamHash(cfg.spec, cfg.seed, cfg.loaded(), 256)),
		ElapsedS:   rep.elapsed.Seconds(),
	}
}

// result is the line the contract fixes: exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) result() result {
	specs, vals := endToEnd, rep.e2e
	if rep.cfg.trace {
		specs, vals = perLayer, rep.layer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// print writes the human-readable account of a run, then the stamp.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d: %d ops attempted, %d failed, %d torn scans retried, %.1fs\n",
		rep.cfg.spec.name, rep.cfg.seed, rep.attempted, rep.failed, rep.tornScans, rep.elapsed.Seconds())
	fmt.Fprintf(w, "  %d measured slices of %d requests per stream, median %.3f s each\n", len(rep.slices), rep.cfg.sliceReqs(),
		over(rep.slices, func(s *sliceStat) float64 { return float64(s.wallNs) / 1e9 }))
	var total classSum
	var byClass [nClasses]classSum
	for i := range rep.slices {
		for c := range byClass {
			byClass[c].add(rep.slices[i].cls[c])
			total.add(rep.slices[i].cls[c])
		}
	}
	unit := rep.cfg.spec.unit
	for i := range rep.slices {
		s := &rep.slices[i]
		fmt.Fprintf(w, "    slice %2d: %.3f s  %12.0f keys/s  p50 %9.2f us  p90 %9.2f us  p99 %9.2f us  cpu %9.2f ns/key\n",
			i, float64(s.wallNs)/1e9, s.keysPerSec(), s.p50[unit]/1e3, s.p90[unit]/1e3, s.p99[unit]/1e3, s.cpuNsPerKey())
	}
	fmt.Fprint(w, "  request time by class:")
	for c, name := range classNames {
		if byClass[c].reqs > 0 {
			fmt.Fprintf(w, " %s %.0f%%", name, 100*ratio(float64(byClass[c].ns), float64(total.ns)))
		}
	}
	fmt.Fprintln(w)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %14.4f %s\n", m.name, rep.e2e[m.name], m.unit)
	}
	if rep.layer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", m.name, rep.layer[m.name], m.unit)
		}
	}
	if rep.ladder != nil {
		rep.ladder.print(w)
	}
	if rep.counts != nil {
		counts, _ := json.Marshal(rep.counts)
		fmt.Fprintf(w, "counts %s\n", counts)
	}
	stamp, _ := json.Marshal(stampOf(rep))
	fmt.Fprintf(w, "env %s\n", stamp)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "seed of the op streams and the loaded keys")
		seconds  = flag.Int("seconds", refSeconds, "sizes the measured phase: the fixed op count that takes this long on the reference box")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics and the cost ladder instead of the end-to-end metrics")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the ladder's spans here as JSON lines")
		scale    = flag.Float64("scale", 1, "multiplies store sizes and op counts (tests use 0.01)")
		aa       = flag.Int("aa", 0, "A/A self-check: run every workload (or -workload) N times in each of two interleaved sets")
		walRoot  = flag.String("wal-dir", "", "where serve-durable makes its store directories (default: "+tmpfsRoot+" when writable, else inside the checkout)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	base := config{seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1, walRoot: *walRoot, traceOut: *traceOut}
	if *aa > 0 {
		os.Exit(selfCheck(base, *workload, *aa, "BENCHMARK.json", os.Stdout))
	}
	base.spec = workloadByName(*workload)
	if base.spec == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if base.spec.durable && base.walRoot == "" {
		base.walRoot = defaultWALRoot()
		base.onDevice = base.walRoot != tmpfsRoot
	}
	rep, err := measure(&base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// tmpfsRoot is where serve-durable keeps its stores when it can: fsync
// costs nothing there, so the workload measures the WAL and checkpoint
// code and not the device under the checkout.
const tmpfsRoot = "/dev/shm"

// defaultWALRoot is tmpfsRoot when a directory can be made in it, else a
// directory inside the checkout. Only a workload with a durable store
// asks, and its stamp prints the choice and the filesystem.
func defaultWALRoot() string {
	if probe, err := os.MkdirTemp(tmpfsRoot, "rma-bench-probe-"); err == nil {
		_ = os.Remove(probe) // empty and ours; a leftover harms nothing
		return tmpfsRoot
	}
	return filepath.Join(".bench_build", "durable")
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i := range workloads {
		names[i] = workloads[i].name
	}
	return names
}
