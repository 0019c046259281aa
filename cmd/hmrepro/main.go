// Command hmrepro regenerates every table and figure of the paper's
// evaluation (Figs. 1, 2, 5-6, 7, 8, 9) plus the extension experiments
// (X1-X15), printing one text table per figure, and runs single
// Stencil3D or MatMul configurations.
//
// Usage:
//
//	hmrepro [-scale full|small] [-skip-ext] [-only NAME] [-audit]
//	        [-evict-policy decl|lru|lookahead]
//	        [-bench FILE] [-trace FILE] [-spans DIR]
//	hmrepro run stencil|matmul [-scale full|small]
//	        [-mode ddr|naive|single|no|multi] [-total GB] [-tiers 2|3|4]
//	        [-reduced GB] [-iters N]   (stencil)
//	        [-grid G]                  (matmul)
//	        [-audit] [-adapt] [-evict-policy NAME] [-trace FILE]
//
// Without -only, hmrepro runs the paper's figures and then every
// extension but X12; -skip-ext stops after the paper's figures. -only
// NAME runs one figure: fig1, fig2, figs5-6, fig7, fig8, fig9 or x1 ...
// x15. X12, the engine hot-path benchmark (scheduler throughput at
// 10k/100k/1M tasks plus the serial-vs-parallel cluster substrate
// check), measures host wall-clock — the one figure that is not
// deterministic — so it runs only as -only x12.
//
// With -audit every simulated run carries the invariant auditor from
// internal/audit: conservation laws are checked continuously, the
// watchdog reports silent stalls, and one JSON metrics snapshot per run
// is printed after each figure. Any invariant violation makes the
// command exit nonzero. -evict-policy forces a victim policy on every
// movement-mode run.
//
// -bench FILE writes the selected figure's JSON benchmark snapshot; it
// needs -only with one of x9 ... x15 (the figures that have one). -trace
// FILE writes X11's sample capture (the Fig 8 overflow run) for hmtrace
// to inspect. -spans DIR writes, for each Figs 5-6 strategy, its
// Projections span log (<mode>.json) and ASCII activity timeline
// (<mode>.txt).
//
// Several extensions carry a gate, checked after every table is
// printed; a failed gate makes the command exit nonzero:
//   - X11 (trace replay): replay must be byte-identical and every
//     what-if delta consistent with the real run.
//   - X12: serial and goroutine-parallel cluster runs byte-identical.
//   - X13 (multi-tenant service): the budget-isolation gate.
//   - X14 (memory-chain depth): the widening-advantage gate.
//   - X15 (closed tuning loop): warm starts settle strictly earlier
//     than the cold climb on every X9 point, and the offline search
//     recommends the lookahead victim policy X10 measures.
//
// run executes one kernel under one strategy and prints its time and
// movement counters. Sizes are in GB; 0 takes the scale's default (the
// Fig 8 middle point for stencil, the Fig 9 smallest point for matmul),
// and the machine and PE count follow -scale. -tiers extends the memory
// chain (3: +NVM, 4: +remote pool). -adapt attaches the online adaptive
// controller and prints its convergence trace; -trace records the run
// as a JSONL capture; -audit prints the run's JSON metrics snapshot and
// exits nonzero on any invariant violation.
//
// Exit status: 0 on success, 1 when a run, a gate or the audit fails,
// 2 on a usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outcome is what one figure run leaves behind.
type outcome struct {
	table fmt.Stringer
	// bench is the JSON benchmark snapshot; nil when the figure has none.
	bench any
	// gate is the figure's pass/fail verdict (nil: passed or none).
	gate error
}

// figure is one entry of the reproduction. Names starting with "X" are
// extensions; -only takes the name lower-cased without spaces.
type figure struct {
	name     string
	snapshot bool // has a JSON benchmark snapshot for -bench
	run      func(exp.Scale) (outcome, error)
}

func (f figure) key() string { return strings.ToLower(strings.ReplaceAll(f.name, " ", "")) }

// tabler is any experiment result with a Table.
type tabler interface{ Table() exp.Table }

// tableFig wraps a driver whose result is just a table.
func tableFig[R tabler](name string, run func(exp.Scale) (R, error)) figure {
	return figure{name: name, run: func(s exp.Scale) (outcome, error) {
		r, err := run(s)
		if err != nil {
			return outcome{}, err
		}
		return outcome{table: r.Table()}, nil
	}}
}

// snapshotFig wraps a driver whose result also has a JSON benchmark
// snapshot and, optionally, a gate.
func snapshotFig[R interface {
	tabler
	Bench() B
}, B any](name string, run func(exp.Scale) (R, error), gate func(R) error) figure {
	return figure{name: name, snapshot: true, run: func(s exp.Scale) (outcome, error) {
		r, err := run(s)
		if err != nil {
			return outcome{}, err
		}
		o := outcome{table: r.Table(), bench: r.Bench()}
		if gate != nil {
			o.gate = gate(r)
		}
		return o, nil
	}}
}

// keep wraps a driver so its full result stays reachable after the run.
func keep[R any](dst *R, run func(exp.Scale) (R, error)) func(exp.Scale) (R, error) {
	return func(s exp.Scale) (R, error) {
		r, err := run(s)
		*dst = r
		return r, err
	}
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "run" {
		return cmdRun(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("hmrepro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "full", "experiment scale: full (paper sizes) or small (1/8 slice)")
	skipExt := fs.Bool("skip-ext", false, "skip the extension experiments X1-X15")
	only := fs.String("only", "", "run only this figure: fig1, fig2, figs5-6, fig7, fig8, fig9, x1 ... x15")
	auditOn := fs.Bool("audit", false, "enable the invariant auditor and print JSON metrics per run")
	policyName := fs.String("evict-policy", "", "force an eviction victim policy on movement-mode runs: decl, lru or lookahead")
	benchOut := fs.String("bench", "", "write the -only figure's JSON benchmark snapshot (x9 ... x15) to this file")
	traceOut := fs.String("trace", "", "write X11's sample capture (the fig8 overflow run) to this JSONL file")
	spansDir := fs.String("spans", "", "write each Figs 5-6 strategy's span JSON and ASCII timeline to this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hmrepro: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q (single runs are hmrepro run stencil|matmul)", fs.Args())
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return usage("%v", err)
	}
	pol, err := parsePolicy(*policyName)
	if err != nil {
		return usage("%v", err)
	}

	var fig56 *exp.Fig56Result
	var x11 *exp.X11Result
	all := []figure{
		tableFig("Fig 1", exp.RunFig1),
		tableFig("Fig 2", exp.RunFig2),
		tableFig("Figs 5-6", keep(&fig56, exp.RunFig56)),
		tableFig("Fig 7", exp.RunFig7),
		tableFig("Fig 8", exp.RunFig8),
		tableFig("Fig 9", exp.RunFig9),
		tableFig("X1", exp.RunCacheMode),
		tableFig("X2", exp.RunAblationQueues),
		tableFig("X3", exp.RunAblationIOThreads),
		tableFig("X4", exp.RunAblationEviction),
		tableFig("X5", exp.RunNVM),
		tableFig("X6", exp.RunAblationPrefetchDepth),
		tableFig("X7", exp.RunLoadBalance),
		tableFig("X8", exp.RunCluster),
		snapshotFig("X9", exp.RunX9, nil),
		snapshotFig("X10", exp.RunX10, nil),
		snapshotFig("X11", keep(&x11, exp.RunX11), func(r *exp.X11Result) error {
			if !r.Identical || !r.Consistent() {
				return errors.New("replay validation failed (see table above)")
			}
			return nil
		}),
		snapshotFig("X12", exp.RunX12, func(r *exp.X12Result) error {
			if !r.Cluster.Identical {
				return errors.New("serial and parallel cluster runs diverged (see table above)")
			}
			return nil
		}),
		snapshotFig("X13", exp.RunX13, func(r *exp.X13Result) error {
			if !r.Pass() {
				return errors.New("budget isolation gate failed (see table above)")
			}
			return nil
		}),
		snapshotFig("X14", exp.RunX14, func(r *exp.X14Result) error {
			if err := r.Pass(); err != nil {
				return fmt.Errorf("widening-advantage gate failed: %w", err)
			}
			return nil
		}),
		snapshotFig("X15", exp.RunX15, func(r *exp.X15Result) error {
			if err := r.Pass(); err != nil {
				return fmt.Errorf("closed-loop tuning gate failed: %w", err)
			}
			return nil
		}),
	}

	var figures []figure
	for _, f := range all {
		switch {
		case *only != "":
			if f.key() == *only {
				figures = append(figures, f)
			}
		case f.name == "X12": // host wall-clock: only on request
		case *skipExt && strings.HasPrefix(f.name, "X"):
		default:
			figures = append(figures, f)
		}
	}
	if *only != "" && len(figures) == 0 {
		var names []string
		for _, f := range all {
			names = append(names, f.key())
		}
		return usage("unknown figure %q; valid names: %s", *only, strings.Join(names, " "))
	}
	if *benchOut != "" && (*only == "" || !figures[0].snapshot) {
		return usage("-bench needs -only with one figure that has a snapshot (x9 ... x15)")
	}
	selected := func(name string) bool {
		for _, f := range figures {
			if f.name == name {
				return true
			}
		}
		return false
	}
	if *traceOut != "" && !selected("X11") {
		return usage("-trace needs the X11 figure (drop -skip-ext or pass -only x11)")
	}
	if *spansDir != "" && !selected("Figs 5-6") {
		return usage("-spans needs the Figs 5-6 figure (pass -only figs5-6)")
	}

	// exp's auditing and eviction policy are package state; set both
	// explicitly so repeated in-process runs start clean.
	exp.SetAudit(*auditOn)
	exp.SetEvictPolicy(pol)

	fmt.Fprintf(stdout, "hetmem reproduction — %s scale\n\n", scale)
	var totalViolations int64
	var outcomes []outcome
	for _, f := range figures {
		// Wall-clock here times the reproduction itself for the stderr
		// progress note; every number on stdout is virtual-time.
		start := time.Now() //hmlint:ignore determinism wall-clock progress timing, stderr only
		o, err := f.run(scale)
		if err != nil {
			fmt.Fprintf(stderr, "hmrepro: %s: %v\n", f.name, err)
			return 1
		}
		outcomes = append(outcomes, o)
		fmt.Fprintln(stdout, o.table)
		if *auditOn {
			v, err := reportAudit(f.name, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "hmrepro: %v\n", err)
				return 1
			}
			totalViolations += v
		}
		//hmlint:ignore determinism wall-clock progress note goes to stderr, not the tables
		fmt.Fprintf(stderr, "[%s done in %v]\n", f.name, time.Since(start).Round(time.Millisecond))
	}

	if *benchOut != "" {
		out, err := json.MarshalIndent(outcomes[0].bench, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchOut, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "hmrepro: bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "[bench snapshot written to %s]\n", *benchOut)
	}
	if *traceOut != "" {
		if err := x11.Sample.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(stderr, "hmrepro: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "[sample capture written to %s]\n", *traceOut)
	}
	if *spansDir != "" {
		if err := writeSpans(fig56, *spansDir); err != nil {
			fmt.Fprintf(stderr, "hmrepro: spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "[spans and timelines written to %s]\n", *spansDir)
	}
	code := 0
	if totalViolations > 0 {
		fmt.Fprintf(stderr, "hmrepro: audit: %d invariant violation(s) detected\n", totalViolations)
		code = 1
	}
	for i, o := range outcomes {
		if o.gate != nil {
			fmt.Fprintf(stderr, "hmrepro: %s: %v\n", figures[i].name, o.gate)
			code = 1
		}
	}
	return code
}

// reportAudit drains the snapshots produced while a figure ran, prints
// them as JSON and returns the violation count.
func reportAudit(figure string, stdout, stderr io.Writer) (int64, error) {
	snaps, violations := exp.DrainAudit()
	for i := range snaps {
		snaps[i].Label = fmt.Sprintf("%s run %d", figure, i)
	}
	out, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("%s: marshal audit snapshots: %w", figure, err)
	}
	fmt.Fprintf(stdout, "audit[%s]: %s\n\n", figure, out)
	if violations > 0 {
		fmt.Fprintf(stderr, "[%s: %d invariant violation(s)]\n", figure, violations)
	}
	return violations, nil
}

// writeSpans writes each Figs 5-6 strategy's Projections span log and
// ASCII timeline into dir, named after the strategy.
func writeSpans(r *exp.Fig56Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, mode := range []core.Mode{core.Baseline, core.SingleIO, core.NoIO, core.MultiIO} {
		run := r.Runs[mode]
		base := filepath.Join(dir, strings.ReplaceAll(strings.ToLower(mode.String()), " ", "-"))
		f, err := os.Create(base + ".json")
		if err != nil {
			return err
		}
		err = run.WriteSpans(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+".txt", []byte(run.Timeline+"\n"), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func parseScale(name string) (exp.Scale, error) {
	switch name {
	case "full":
		return exp.Full, nil
	case "small":
		return exp.Small, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want full or small)", name)
	}
}

// parsePolicy parses an -evict-policy value; "" means the default.
func parsePolicy(name string) (core.EvictPolicy, error) {
	if name == "" {
		return nil, nil
	}
	return core.ParseEvictPolicy(name)
}
