package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"time"

	"rma"
	"rma/internal/exp"
	"rma/internal/loadgen"
	"rma/internal/server"
)

// serve measures the full serving stack: loadgen's closed-loop client
// pool driving the YCSB-style mixes A–E over RESP against rmaserve's
// engine. With -serveaddr it dials an externally running rmaserve (the
// nightly soak path: real TCP, durability on); without it, each mix
// runs against a fresh in-process store behind a loopback listener
// (background rebalancing on) so CI gets a
// deterministic fixture per mix. It lives in package main rather than
// internal/exp because it needs the rma facade, which exp cannot
// import (bench_test.go is an in-package rma test importing exp).
//
// With -json/-label it appends per-mix, per-op-class HotpathResults
// (throughput, mean, p50/p99/p999) to the BENCH trajectory; with
// -thresholds it enforces SERVE_THRESHOLDS.json and exits nonzero on
// any error reply or p99 beyond the checked-in ceiling — the soak
// job's regression gate.
func serve(p exp.Params) {
	fmt.Fprintf(p.Out, "## serve: RESP serving stack, mixes A-E, clients=%d duration=%v keys=%d\n",
		cval(p.Clients, 4), dval(p.Duration, time.Second), p.N)
	fmt.Fprintf(p.Out, "# mix\tclass\tops\terrs\tops/s\tmean_ns\tp50_ns\tp99_ns\tp999_ns\n")

	var results []exp.HotpathResult
	external := p.ServeAddr != ""
	for i, mix := range loadgen.Mixes() {
		res, err := runMix(p, mix, external && i > 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmabench: serve:", err)
			os.Exit(1)
		}
		for _, class := range loadgen.Classes {
			cr, ok := res.PerClass[class]
			if !ok {
				continue
			}
			opsPerSec := float64(cr.Ops) / res.Elapsed.Seconds()
			fmt.Fprintf(p.Out, "%s\t%s\t%d\t%d\t%.0f\t%d\t%d\t%d\t%d\n",
				mix.Name, class, cr.Ops, cr.Errors, opsPerSec,
				cr.Mean.Nanoseconds(), cr.P50.Nanoseconds(),
				cr.P99.Nanoseconds(), cr.P999.Nanoseconds())
			results = append(results, exp.HotpathResult{
				Series:    "serve-" + mix.Name + "-" + class,
				Layout:    "clustered",
				Rebalance: "serve",
				Ops:       int(cr.Ops),
				NsPerOp:   float64(cr.Mean.Nanoseconds()),
				P50Ns:     float64(cr.P50.Nanoseconds()),
				P99Ns:     float64(cr.P99.Nanoseconds()),
				P999Ns:    float64(cr.P999.Nanoseconds()),
				OpsPerSec: opsPerSec,
				Errors:    cr.Errors,
				Clients:   res.Clients,
			})
		}
	}
	appendSnapshot(p, results)

	if *thresholds != "" {
		if !checkThresholds(*thresholds, results, os.Stderr) {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rmabench: serve within thresholds (%s)\n", *thresholds)
	}
}

// runMix runs one mix. In-process mode builds a fresh store + server
// per mix; external mode reuses the running server (skipPreload after
// the first mix — SET is an upsert, so the key range stays [0, N) plus
// whatever the previous mixes inserted).
func runMix(p exp.Params, mix loadgen.Mix, skipPreload bool) (loadgen.Result, error) {
	opts := loadgen.Options{
		Clients:     p.Clients,
		Duration:    p.Duration,
		Seed:        p.Seed,
		Keys:        p.N,
		SkipPreload: skipPreload,
	}
	if p.ServeAddr != "" {
		opts.Dial = func() (net.Conn, error) { return net.Dial("tcp", p.ServeAddr) }
		return loadgen.Run(opts, mix)
	}

	db, err := rma.NewSharded(8, rma.WithBackgroundRebalancing(-1))
	if err != nil {
		return loadgen.Result{}, err
	}
	defer db.Close()
	srv := server.New(db, server.Config{})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return loadgen.Result{}, err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	opts.Dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	return loadgen.Run(opts, mix)
}

// serveThresholds is the SERVE_THRESHOLDS.json schema: per series
// ("serve-<mix>-<class>"), the ceilings the soak gate enforces. Zero
// values mean unchecked (except errors, which are always checked).
type serveThresholds struct {
	Comment string `json:"comment"`
	Series  map[string]struct {
		MaxP99Ns  float64 `json:"max_p99_ns"`
		MinOpsSec float64 `json:"min_ops_per_sec"`
	} `json:"series"`
}

// checkThresholds enforces the checked-in ceilings against the run's
// results: any error reply fails, and any series listed in the file
// fails when its p99 exceeds (or throughput undercuts) the bound.
func checkThresholds(path string, results []exp.HotpathResult, w *os.File) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(w, "rmabench: thresholds:", err)
		return false
	}
	var th serveThresholds
	if err := json.Unmarshal(data, &th); err != nil {
		fmt.Fprintln(w, "rmabench: thresholds:", err)
		return false
	}
	ok := true
	for _, r := range results {
		if r.Errors > 0 {
			fmt.Fprintf(w, "rmabench: FAIL %s: %d error replies (want 0)\n", r.Series, r.Errors)
			ok = false
		}
		t, listed := th.Series[r.Series]
		if !listed {
			continue
		}
		if t.MaxP99Ns > 0 && r.P99Ns > t.MaxP99Ns {
			fmt.Fprintf(w, "rmabench: FAIL %s: p99 %.0fns > ceiling %.0fns\n", r.Series, r.P99Ns, t.MaxP99Ns)
			ok = false
		}
		if t.MinOpsSec > 0 && r.OpsPerSec < t.MinOpsSec {
			fmt.Fprintf(w, "rmabench: FAIL %s: %.0f ops/s < floor %.0f\n", r.Series, r.OpsPerSec, t.MinOpsSec)
			ok = false
		}
	}
	return ok
}

func cval(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

func dval(v, def time.Duration) time.Duration {
	if v <= 0 {
		return def
	}
	return v
}
