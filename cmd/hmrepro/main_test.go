package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/trace"
)

// exec runs the command and returns (exit code, stdout, stderr).
func exec(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestOnlyRunsOneFigure(t *testing.T) {
	code, out, errb := exec("-scale", "small", "-only", "fig7")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	if n := strings.Count(errb, " done in "); n != 1 || !strings.Contains(errb, "[Fig 7 done in ") {
		t.Fatalf("want exactly the Fig 7 figure run, progress lines:\n%s", errb)
	}
	r, err := exp.RunFig7(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	want := "hetmem reproduction — small scale\n\n" + r.Table().String() + "\n"
	if out != want {
		t.Fatalf("stdout:\n%s\nwant:\n%s", out, want)
	}
}

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "bench.json")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown figure", []string{"-only", "fig3"},
			"valid names: fig1 fig2 figs5-6 fig7 fig8 fig9 x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15"},
		{"bench without only", []string{"-scale", "small", "-bench", bench}, "-bench needs -only"},
		{"bench on a figure without snapshot", []string{"-scale", "small", "-only", "fig7", "-bench", bench}, "-bench needs -only"},
		{"trace without X11", []string{"-scale", "small", "-only", "fig7", "-trace", bench}, "-trace needs the X11 figure"},
		{"spans without Figs 5-6", []string{"-scale", "small", "-skip-ext", "-only", "fig8", "-spans", dir}, "-spans needs the Figs 5-6 figure"},
		{"bad scale", []string{"-scale", "huge"}, "unknown scale"},
		{"stray argument", []string{"fig7"}, "unexpected arguments"},
		{"run without kernel", []string{"run"}, "want a kernel"},
		{"run unknown kernel", []string{"run", "shift"}, "want a kernel"},
		{"run bad mode", []string{"run", "matmul", "-mode", "fast"}, "unknown mode"},
		{"run flag of the other kernel", []string{"run", "matmul", "-iters", "2"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := exec(tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstderr: %s", code, errb)
			}
			if out != "" {
				t.Errorf("usage error printed to stdout: %s", out)
			}
			if !strings.Contains(errb, tc.want) {
				t.Errorf("stderr %q does not mention %q", errb, tc.want)
			}
		})
	}
	if _, err := os.Stat(bench); !os.IsNotExist(err) {
		t.Fatalf("a refused -bench still wrote %s (stat err %v)", bench, err)
	}
}

func TestBenchSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	code, _, errb := exec("-scale", "small", "-only", "x14", "-bench", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := exp.RunX14(exp.Small)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(r.Bench(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("snapshot differs from a direct X14 run:\n%s", got)
	}
}

// TestRunStencilSmallTrace: a single run takes its machine and PE count
// from -scale, and its capture decodes.
func TestRunStencilSmallTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	code, out, errb := exec("run", "stencil", "-scale", "small", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	for _, want := range []string{"Stencil3D Multiple IO threads: total 4 GB, reduced 0.5 GB", "total time", "fetches", "events written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := trace.Decode(f)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	m := c.Meta()
	if m == nil || len(c.Events) < 2 {
		t.Fatalf("capture has no meta or no events (%d)", len(c.Events))
	}
	small := exp.Small.Machine()
	if m.NumPEs != 8 || m.Spec.Cores != small.Cores || m.Spec.HBMCap != small.HBMCap {
		t.Fatalf("small-scale run built %d PEs on %d cores with %d B HBM, want 8 PEs on the small machine (%d cores, %d B)",
			m.NumPEs, m.Spec.Cores, m.Spec.HBMCap, small.Cores, small.HBMCap)
	}
	if m.Knobs.HBMReserve != exp.Small.HBMReserve() {
		t.Fatalf("HBM reserve %d, want the small scale's %d", m.Knobs.HBMReserve, exp.Small.HBMReserve())
	}
}

func TestRunMatMulAudit(t *testing.T) {
	code, out, errb := exec("run", "matmul", "-scale", "small", "-mode", "single", "-audit", "-adapt")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	for _, want := range []string{"MatMul Single IO thread: 3 GB total, 8x8 blocks", "adaptive controller", `"label": "matmul Single IO thread 3GB"`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSpans(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spans")
	code, _, errb := exec("-scale", "small", "-only", "figs5-6", "-spans", dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, errb)
	}
	for _, ext := range []string{".json", ".txt"} {
		files, err := filepath.Glob(filepath.Join(dir, "*"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 4 {
			t.Fatalf("%d %s files in %s, want 4 (one per strategy): %v", len(files), ext, dir, files)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 {
				t.Errorf("%s is empty", f)
			}
			if ext == ".json" && !json.Valid(b) {
				t.Errorf("%s is not valid JSON", f)
			}
		}
	}
}
