// Command perfbench is the repository benchmark. It runs one named
// workload through the layers' public APIs, checks the outputs, and
// prints every metric by name with its unit. The last line of standard
// output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with no
// spans and no profile. With -trace 1 the workload runs twice, untraced
// then traced (spans around every layer call plus a CPU profile folded
// onto the modules), and the metrics are the per-layer set. Run it from
// the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//
// NOTES.md records why each workload exists and what each metric should
// move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// unit operation counts and the end-to-end values a workload measured.
type measurement struct {
	attempted, failed int64
	wall              float64 // host seconds of the fixed unit of work (wall_s)
	tasks             float64 // simulated tasks behind all the measured work
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string // tail percentiles, sample counts, run details
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// timing stores a p50/tail pair and reports the tail's percentile and
// sample count.
func (m *measurement) timing(into map[string]float64, p50, tailName string, xs []float64) {
	into[p50] = median(xs)
	t := tail(xs)
	into[tailName] = t.Value
	m.notes = append(m.notes, fmt.Sprintf("%s: p%.1f of n=%d", tailName, t.Percentile, t.N))
}

// workload is one named input set. setup brings the program to the
// point of the first timed operation; measure runs the timed part for
// about budget (tr is nil when untraced); close releases what setup
// built.
type workload interface {
	setup() error
	measure(budget time.Duration, tr *tracer) (*measurement, error)
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sweep":
		return newSweep(seed), nil
	case "serve":
		return newServe(seed)
	case "trace":
		return newTraceWL(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep, serve or trace)", name)
}

// setups is how many times an untraced run sets up, reporting the
// median as setup_s.
const setups = 3

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep, serve or trace")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		traced  = flag.Int("trace", 0, "1: traced per-layer run, 0: end-to-end run")
		outdir  = flag.String("outdir", ".bench_build/perfbench", "directory for spans, profile and the full result")
	)
	flag.Parse()
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *outdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, seed int64, budget time.Duration, traced bool, outdir string) (*result, error) {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	meta := hostMeta(name, seed)
	w, err := newWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var m *measurement
	values := map[string]float64{}
	if !traced {
		var times []float64
		for i := 0; i < setups; i++ {
			t0 := time.Now()
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			times = append(times, time.Since(t0).Seconds())
		}
		if m, err = w.measure(budget, nil); err != nil {
			return nil, err
		}
		runtime.GC() // what the workload still holds counts toward the peak
		noteHeap()
		for k, v := range m.e2e {
			values[k] = v
		}
		values["setup_s"] = median(times)
		values["wall_s"] = m.wall
		values["peak_heap_mb"] = float64(heapPeak.Load()) / (1 << 20)
		values["success_ratio"] = 1 - float64(m.failed)/float64(max(m.attempted, 1))
	} else {
		if m, values, err = tracedRun(w, budget, filepath.Join(outdir, fmt.Sprintf("%s-%d", name, seed))); err != nil {
			return nil, err
		}
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricOut{}}
	for _, d := range want {
		res.Metrics[d.Name] = metricOut{Value: values[d.Name], Unit: d.Unit}
	}
	for k := range values {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("metric %q is not in the catalog", k)
		}
	}
	printReport(meta, res, m.notes)
	full := map[string]any{"host": meta, "result": res, "notes": m.notes}
	b, _ := json.MarshalIndent(full, "", "  ") // plain maps and structs always marshal
	if err := os.WriteFile(filepath.Join(outdir, fmt.Sprintf("%s-%d-trace%d.json", name, seed, b2i(traced))), b, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedRun measures the workload untraced for half the budget, then
// traced for the other half with spans and a CPU profile, and returns
// the per-layer values.
func tracedRun(w workload, budget time.Duration, prefix string) (*measurement, map[string]float64, error) {
	if err := w.setup(); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := w.measure(budget/2, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&after)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	m, err := w.measure(budget/2, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	m.attempted += plain.attempted
	m.failed += plain.failed
	if err := tr.write(prefix + "-spans.json"); err != nil {
		return nil, nil, err
	}
	if err := os.WriteFile(prefix+"-cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, nil, err
	}
	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	f := foldStacks(stacks)

	v := map[string]float64{}
	for k, x := range m.layer {
		v[k] = x
	}
	for _, mod := range []string{"core", "charm", "kernels", "trace", "serve", "http", "bench"} {
		v[mod+".self_share"] = f.share(f.Owner[mod])
	}
	v["memsim.solver_share"] = f.share(f.Owner["memsim"])
	v["sim.handoff_share"] = f.share(f.Handoff)
	v["go.sched_share"] = f.share(f.Owner["sched"])
	v["go.gc_share"] = f.share(f.GC)
	if ev := v["sim.events"]; ev > 0 {
		v["sim.ns_per_event"] = plain.wall * 1e9 / ev
	}
	if plain.tasks > 0 {
		v["go.allocs_per_task"] = float64(after.Mallocs-before.Mallocs) / plain.tasks
	}
	v["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	v["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	v["bench.trace_overhead_pct"] = 100 * (m.wall/plain.wall - 1)
	v["failed_ratio"] = float64(m.failed) / float64(max(m.attempted, 1))
	m.notes = append(m.notes, fmt.Sprintf("profile: %d samples; spans: %d", f.Total, len(tr.spans)))
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m.notes = append(m.notes, fmt.Sprintf("span self time %s: %.1f ms", k, self[k]))
	}
	return m, v, nil
}

// printReport writes the human-readable lines that precede the result:
// host metadata, every metric with its unit, and the notes.
func printReport(meta map[string]any, res *result, notes []string) {
	b, _ := json.Marshal(map[string]any{"host": meta}) // plain values always marshal
	fmt.Println(string(b))
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, n := range notes {
		fmt.Println("# " + n)
	}
}

// hostMeta is recorded with every result.
func hostMeta(name string, seed int64) map[string]any {
	meta := map[string]any{
		"workload":   name,
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     gitCommit(),
	}
	if name == "serve" {
		meta["client_goroutines"] = clientGoroutines
	}
	return meta
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory of the working
// directory, or reports that the checkout carries no git metadata.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, r, ok := strings.Cut(line, " "); ok && r == ref {
				return sha
			}
		}
	}
	return "unknown (" + ref + ")"
}

// heapPeak is the largest live heap seen at an operation boundary.
var heapPeak atomic.Uint64

// noteHeap samples the live heap as the last collection marked it and
// keeps the peak. Workloads call it after every operation; reading the
// metric does not stop the world.
func noteHeap() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return
	}
	v := s[0].Value.Uint64()
	for {
		old := heapPeak.Load()
		if v <= old || heapPeak.CompareAndSwap(old, v) {
			return
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
