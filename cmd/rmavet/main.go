// Command rmavet machine-checks the contracts this repo otherwise only
// states in prose: the shard lock discipline (lockcheck), the
// steady-state allocation-free hot paths (noalloc), and the confinement
// and page lifecycle of unsafe virtual memory (unsafecheck). See
// STATIC_ANALYSIS.md.
//
// Usage:
//
//	rmavet [-dir path]           run the analyzer suite over the module
//	rmavet [-dir path] -escapes  run the escape-analysis regression gate
//
// The escape gate compiles the module with -gcflags=-m and fails if the
// compiler reports a heap escape inside the //rma:noalloc call closure
// on a line the annotations do not excuse — the backstop for the edges
// static analysis cannot follow (dynamic dispatch, compiler-version
// drift in escape analysis).
//
// Exit codes: 0 clean, 1 findings, 2 operational failure (load or build
// error, analyzer bug).
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"rma/internal/analyzers/lockcheck"
	"rma/internal/analyzers/noalloc"
	"rma/internal/analyzers/rig"
	"rma/internal/analyzers/unsafecheck"
)

var suite = []*rig.Analyzer{
	lockcheck.Analyzer,
	noalloc.Analyzer,
	unsafecheck.Analyzer,
}

func main() {
	dir := flag.String("dir", ".", "module root to analyze")
	escapes := flag.Bool("escapes", false,
		"run the escape-analysis regression gate instead of the analyzer suite")
	flag.Parse()

	root, err := filepath.Abs(*dir)
	if err != nil {
		fatal(err)
	}
	m, err := rig.Load(root)
	if err != nil {
		fatal(err)
	}

	var findings int
	if *escapes {
		findings, err = escapeGate(root, m)
	} else {
		findings, err = analyze(root, m)
	}
	if err != nil {
		fatal(err)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "rmavet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmavet:", err)
	os.Exit(2)
}

// analyze runs the analyzer suite and prints one line per finding.
func analyze(root string, m *rig.Module) (int, error) {
	diags, err := rig.Run(m, suite)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		pos := m.Fset.Position(d.Pos)
		fmt.Printf("%s:%d:%d: %s [%s]\n",
			relPath(root, pos.Filename), pos.Line, pos.Column, d.Message, d.Analyzer)
	}
	return len(diags), nil
}

// escapeLine matches one file-positioned compiler -m diagnostic.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*)$`)

// escapeGate recompiles the module with escape-analysis diagnostics on
// and reports every heap escape landing inside the //rma:noalloc call
// closure on a line the annotations do not excuse.
func escapeGate(root string, m *rig.Module) (int, error) {
	closure := noalloc.Closure(m)
	if len(closure) == 0 {
		return 0, fmt.Errorf("escape gate: no //rma:noalloc functions found")
	}
	byFile := make(map[string][]noalloc.ClosureFunc)
	for _, cf := range closure {
		byFile[cf.File] = append(byFile[cf.File], cf)
	}

	// The -gcflags pattern scopes the flags to module packages; the
	// compiler replays the diagnostics from the build cache on repeat
	// runs. -l disables inlining so every escape is reported at its true
	// source line — with inlining on, a callee's escape is attributed to
	// the call site, detaching it from the //rma: marker that excuses it.
	// Escape analysis itself is interprocedural either way (parameter
	// leak summaries), so -l only changes attribution, not coverage.
	cmd := exec.Command("go", "build", "-gcflags=rma/...=-m -l", "./...")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("escape gate: go build -gcflags=-m: %v\n%s", err, out.String())
	}

	findings := 0
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		mm := escapeLine.FindStringSubmatch(sc.Text())
		if mm == nil {
			continue
		}
		msg := mm[3]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := mm[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		line, _ := strconv.Atoi(mm[2])
		for _, cf := range byFile[file] {
			if line < cf.StartLine || line > cf.EndLine || cf.Exempt[line] {
				continue
			}
			fmt.Printf("%s:%d: %s in //rma:noalloc closure function %s [escapes]\n",
				relPath(root, file), line, msg, cf.Name)
			findings++
			break
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if findings == 0 {
		fmt.Fprintf(os.Stderr, "rmavet: escape gate clean (%d functions in the //rma:noalloc closure)\n",
			len(closure))
	}
	return findings, nil
}

// relPath shortens an absolute position path for display, falling back
// to the absolute form when the file lies outside the module root.
func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return file
}
