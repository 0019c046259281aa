package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
)

// cmdRun is `hmrepro run stencil|matmul`: one kernel, one strategy.
func cmdRun(args []string, stdout, stderr io.Writer) int {
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hmrepro run: "+format+"\n", a...)
		return 2
	}
	if len(args) == 0 || (args[0] != "stencil" && args[0] != "matmul") {
		return usage("want a kernel: hmrepro run stencil|matmul [flags]")
	}
	kernel := args[0]
	fs := flag.NewFlagSet("run "+kernel, flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "full", "experiment scale: full or small (sets the machine and PE count)")
	modeName := fs.String("mode", "multi", "strategy: ddr, naive, single, no, multi")
	total := fs.Float64("total", 0, "total working set in GB (0 = the scale's default)")
	tiers := fs.Int("tiers", 2, "memory chain depth: 2 (HBM/DDR4), 3 (+NVM) or 4 (+remote pool)")
	auditOn := fs.Bool("audit", false, "enable the invariant auditor and print a JSON metrics snapshot")
	adaptOn := fs.Bool("adapt", false, "attach the online adaptive controller and print its convergence trace")
	policyName := fs.String("evict-policy", "", "eviction victim policy for movement modes: decl, lru or lookahead")
	traceOut := fs.String("trace", "", "record the run as a JSONL capture to this file (inspect with hmtrace)")
	var reduced *float64
	var iters, grid *int
	if kernel == "stencil" {
		reduced = fs.Float64("reduced", 0, "reduced working set in GB (0 = the scale's default)")
		iters = fs.Int("iters", 4, "outer iterations")
	} else {
		grid = fs.Int("grid", 0, "block grid side G (0 = the scale's default)")
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	scale, err := parseScale(*scaleName)
	if err != nil {
		return usage("%v", err)
	}
	mode, err := parseMode(*modeName)
	if err != nil {
		return usage("%v", err)
	}
	pol, err := parsePolicy(*policyName)
	if err != nil {
		return usage("%v", err)
	}
	spec, err := scale.TieredMachine(*tiers)
	if err != nil {
		return usage("%v", err)
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "hmrepro run: "+format+"\n", a...)
		return 1
	}

	opts := core.DefaultOptions(mode)
	opts.HBMReserve = scale.HBMReserve()
	opts.Audit = *auditOn
	opts.Metrics = *auditOn || *adaptOn
	if pol != nil && mode.Moves() {
		opts.EvictPolicy = pol
	}
	env := kernels.NewEnv(kernels.EnvConfig{
		Spec:   spec,
		NumPEs: scale.NumPEs(),
		Opts:   opts,
		Trace:  *adaptOn,
	})
	defer env.Close()
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.NewRecorder(env.MG)
		rec.Attach()
	}
	attachController := func(cfg adapt.Config) (*adapt.Controller, error) {
		ctl, err := adapt.New(env.MG, cfg)
		if err != nil {
			return nil, err
		}
		ctl.Attach()
		if rec != nil {
			rec.AttachController(ctl)
		}
		return ctl, nil
	}

	var (
		ctl     *adapt.Controller
		runApp  func() (sim.Time, error)
		header  string
		width   int           // label column of the report
		perIter func() string // appended to the total-time line
		totalGB float64
	)
	switch kernel {
	case "stencil":
		cfg := scale.StencilConfig(scale.StencilReducedSizes()[1])
		if *reduced > 0 {
			cfg.ReducedBytes = gbBytes(*reduced)
		}
		if *total > 0 {
			cfg.TotalBytes = gbBytes(*total)
		}
		cfg.Iterations = *iters
		app, err := kernels.NewStencil(env.MG, cfg)
		if err != nil {
			return fail("%v", err)
		}
		if *adaptOn {
			if ctl, err = attachController(adapt.Config{}); err != nil {
				return fail("%v", err)
			}
			app.OnIteration = func(_ int, resume func()) {
				ctl.Barrier()
				resume()
			}
		}
		runApp = app.Run
		totalGB = float64(cfg.TotalBytes) / float64(exp.GB)
		header = fmt.Sprintf("Stencil3D %s: total %s, reduced %s, %d chares, %d iterations",
			mode, gbs(cfg.TotalBytes), gbs(cfg.ReducedBytes), cfg.NumChares(), cfg.Iterations)
		width = 14
		perIter = func() string { return fmt.Sprintf(" (avg iteration %.3f s)", app.AvgIterTime()) }
	case "matmul":
		cfg := scale.MatMulConfig(scale.MatMulTotalSizes()[0])
		if *total > 0 {
			cfg.TotalBytes = gbBytes(*total)
		}
		if *grid > 0 {
			cfg.Grid = *grid
		}
		app, err := kernels.NewMatMul(env.MG, cfg)
		if err != nil {
			return fail("%v", err)
		}
		if *adaptOn {
			// MatMul has no iteration barriers: sample completion windows.
			if ctl, err = attachController(adapt.Config{SampleEvery: 2 * cfg.NumPEs}); err != nil {
				return fail("%v", err)
			}
		}
		runApp = app.Run
		totalGB = float64(cfg.TotalBytes) / float64(exp.GB)
		header = fmt.Sprintf("MatMul %s: %g GB total, %dx%d blocks, N=%.0f", mode, totalGB, cfg.Grid, cfg.Grid, cfg.N())
		width = 11
		perIter = func() string { return "" }
	}

	t, err := runApp()
	if err != nil {
		return fail("%v", err)
	}
	st := env.MG.Stats
	fmt.Fprintln(stdout, header)
	fmt.Fprintf(stdout, "  %-*s%8.3f s%s\n", width, "total time", t, perIter())
	fmt.Fprintf(stdout, "  %-*s%8d (%.1f GB)\n", width, "fetches", st.Fetches, float64(st.BytesFetched)/float64(1<<30))
	fmt.Fprintf(stdout, "  %-*s%8d (%.1f GB)\n", width, "evictions", st.Evictions, float64(st.BytesEvicted)/float64(1<<30))
	if ctl != nil {
		fmt.Fprintf(stdout, "adaptive controller (settled window %d):\n%s", ctl.ConvergedWindow(), ctl.TraceString())
	}
	if rec != nil {
		if err := rec.Capture().WriteFile(*traceOut); err != nil {
			return fail("write trace: %v", err)
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s\n", len(rec.Capture().Events), *traceOut)
	}
	if snap, ok := env.MG.AuditSnapshot(); ok {
		snap.Label = fmt.Sprintf("%s %s %gGB", kernel, mode, totalGB)
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return fail("marshal audit snapshot: %v", err)
		}
		fmt.Fprintf(stdout, "audit: %s\n", out)
		if snap.ViolationCount > 0 {
			return fail("audit: %d invariant violation(s) detected", snap.ViolationCount)
		}
	}
	return 0
}

func parseMode(name string) (core.Mode, error) {
	switch name {
	case "ddr":
		return core.DDROnly, nil
	case "naive":
		return core.Baseline, nil
	case "single":
		return core.SingleIO, nil
	case "no":
		return core.NoIO, nil
	case "multi":
		return core.MultiIO, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want ddr, naive, single, no or multi)", name)
	}
}

// gbBytes converts a GB flag value to bytes.
func gbBytes(gb float64) int64 { return int64(gb * float64(exp.GB)) }

func gbs(b int64) string { return fmt.Sprintf("%.3g GB", float64(b)/float64(1<<30)) }
