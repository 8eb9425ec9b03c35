// Command rmabench regenerates the figures of "Packed Memory Arrays –
// Rewired" (De Leo & Boncz, ICDE 2019) at a configurable scale.
//
// Usage:
//
//	rmabench -exp fig14 -n 1048576
//	rmabench -exp all -n 262144 -out results.txt
//
// Experiments: the entries of exp.Figures (fig01a fig01b fig01c fig10
// fig11a fig11b fig12 fig13a fig13b fig14), or "all". Output is TSV with
// one block per figure; the series names match the paper's legends.
// Shapes (who wins, by what factor, where crossovers fall) are the
// reproduction target, not absolute numbers: the paper ran 2^30
// elements on a dual-socket Xeon (PAPER.md). Timing of the serving
// stack lives in bench/ (bench/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"rma/internal/exp"
)

func main() {
	var (
		name = flag.String("exp", "all", "experiment id (fig01a..fig14) or 'all'")
		n    = flag.Int("n", 1<<20, "final cardinality (paper used 2^30)")
		seed = flag.Uint64("seed", 42, "base RNG seed")
		out  = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	figs := exp.Figures
	if *name != "all" {
		i := slices.IndexFunc(figs, func(f exp.Figure) bool { return f.Name == *name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "rmabench: unknown experiment %q (have:", *name)
			for _, f := range exp.Figures {
				fmt.Fprintf(os.Stderr, " %s", f.Name)
			}
			fmt.Fprintln(os.Stderr, ")")
			os.Exit(2)
		}
		figs = figs[i : i+1]
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rmabench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	p := exp.Params{N: *n, Seed: *seed, Out: w}
	for _, f := range figs {
		t0 := time.Now()
		f.Run(p)
		fmt.Fprintf(w, "# %s completed in %v (N=%d, seed=%d)\n\n", f.Name, time.Since(t0).Round(time.Millisecond), p.N, p.Seed)
	}
}
