package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/hetmem/hetmem/internal/exp"
)

func TestInputsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	type inputs struct {
		Sweep  sweepPlan
		Serve  servePlan
		Corpus []captureSpec
	}
	gen := func(seed int64) inputs {
		return inputs{newSweepPlan(seed), newServePlan(seed, 20, 30, 2), newCorpus(seed)}
	}
	for seed := int64(1); seed <= 10; seed++ {
		a, b := gen(seed), gen(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: inputs differ between two draws", seed)
		}
		c := gen(seed + 1)
		if reflect.DeepEqual(a.Sweep, c.Sweep) || reflect.DeepEqual(a.Serve, c.Serve) || reflect.DeepEqual(a.Corpus, c.Corpus) {
			t.Fatalf("seeds %d and %d draw the same inputs", seed, seed+1)
		}
	}
}

func TestInputsStayOnThePaperAxesAndValidate(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		p := newSweepPlan(seed)
		for i, r := range p.StencilReduced {
			if r < 2*gb || r > 8*gb || (i > 0 && r <= p.StencilReduced[i-1]) {
				t.Fatalf("seed %d: stencil sizes %v off the 2-8 GB axis or unordered", seed, p.StencilReduced)
			}
			if err := exp.Full.StencilConfig(r).Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for i, tot := range p.MatMulTotal {
			if tot < 24*gb || tot > 54*gb || (i > 0 && tot <= p.MatMulTotal[i-1]) {
				t.Fatalf("seed %d: matmul sizes %v off the 24-54 GB axis or unordered", seed, p.MatMulTotal)
			}
			if err := exp.Full.MatMulConfig(tot).Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		for _, cs := range newCorpus(seed) {
			if cs.App == "stencil" {
				if err := exp.Full.StencilConfig(cs.Size).Validate(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			} else if tasks := cs.Grid * cs.Grid * cs.Grid; tasks < 6000 || tasks > 28000 {
				t.Fatalf("seed %d: capture %s has %d tasks", seed, cs.name(), tasks)
			}
		}
		sp := newServePlan(seed, 20, 30, 2)
		for _, ph := range [][]arrival{sp.Low, sp.High} {
			traced := 0
			for i, a := range ph {
				if i > 0 && a.At < ph[i-1].At {
					t.Fatalf("seed %d: arrivals out of order", seed)
				}
				if a.Spec.Trace {
					traced++
				}
			}
			if want := min(len(ph), 9); traced != want {
				t.Fatalf("seed %d: %d traced sessions of %d, want %d", seed, traced, len(ph), want)
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the catalog the program emits
// identical to the one BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) || !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Fatalf("BENCHMARK.json metrics differ from the catalog:\njson e2e %v\ncode e2e %v\njson layer %v\ncode layer %v",
			bj.EndToEnd, endToEnd, bj.PerLayer, perLayer)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range bj.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
}

func TestFrameModuleMapsFramesToLayers(t *testing.T) {
	cases := map[string]string{
		"github.com/hetmem/hetmem/internal/memsim.(*System).reallocate": "memsim",
		"github.com/hetmem/hetmem/internal/sim.(*Proc).park":            "sim",
		"github.com/hetmem/hetmem/internal/numa.(*Allocator).Alloc":     "core",
		"github.com/hetmem/hetmem/internal/core.(*Manager).stage":       "core",
		"github.com/hetmem/hetmem/internal/charm.(*PE).loop.func1":      "charm",
		"github.com/hetmem/hetmem/internal/trace.Decode":                "trace",
		"github.com/hetmem/hetmem/internal/serve.(*Scheduler).Step":     "serve",
		"net/http.(*conn).serve":                                        "http",
		"net.(*netFD).Read":                                             "http",
		"runtime.chanrecv":                                              "runtime",
		"internal/runtime/syscall.Syscall6":                             "runtime",
		"main.(*sweep).runOne":                                          "bench",
		"encoding/json.(*decodeState).object":                           "",
	}
	for fn, want := range cases {
		if got := frameModule(fn); got != want {
			t.Errorf("frameModule(%q) = %q, want %q", fn, got, want)
		}
	}
	f := foldStacks([]stack{
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "github.com/hetmem/hetmem/internal/sim.(*Proc).park", "github.com/hetmem/hetmem/internal/charm.(*PE).loop"}, 3},
		{[]string{"github.com/hetmem/hetmem/internal/memsim.(*System).reallocate", "github.com/hetmem/hetmem/internal/core.(*Manager).stage"}, 2},
		{[]string{"encoding/json.(*decodeState).object", "github.com/hetmem/hetmem/internal/trace.Decode", "main.(*traceWL).measure"}, 4},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 1},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, 5},
	})
	want := map[string]int64{"sim": 3, "memsim": 2, "trace": 4, "gc": 1, "sched": 5}
	if f.Total != 15 || f.Handoff != 3 || f.GC != 1 || !reflect.DeepEqual(f.Owner, want) {
		t.Fatalf("fold = %+v", f)
	}
}

func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	stacks, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	f := foldStacks(stacks)
	if f.Total > 0 && f.Owner["bench"] == 0 {
		t.Errorf("a busy loop in this package folded to %v, want bench samples", f.Owner)
	}
	_ = x
}

func TestTailHasTenSamplesAbove(t *testing.T) {
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i)
	}
	if tl := tail(xs); tl.Value != 39 || tl.Percentile != 80 || tl.N != 50 {
		t.Fatalf("tail = %+v", tl)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 3, End: 6},
	}}
	self := tr.selfTimes()
	if self["root"] != 5 || self["a"] != 3 || self["b"] != 3 {
		t.Fatalf("self times = %v", self)
	}
}
