package main

import (
	"fmt"
	"time"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/sim"
)

// sweep runs the Fig 8 stencil and Fig 9 matmul strategy sweeps at full
// scale in a closed loop: one driver, one run after another, the whole
// pass repeated until the budget is spent (at least twice, so the
// passes can be checked against each other).
type sweep struct {
	plan sweepPlan
	runs []sweepRun
}

func newSweep(seed int64) *sweep {
	p := newSweepPlan(seed)
	return &sweep{plan: p, runs: p.runs()}
}

// setup warms the allocator and code paths with one run of the pass.
func (w *sweep) setup() error {
	_, err := w.runOne(sweepRun{"stencil", w.plan.StencilReduced[2], core.MultiIO}, nil, "warmup")
	return err
}

func (w *sweep) close() {}

// runOut is what one simulator run reports from outside: its makespan
// and the layers' public counters.
type runOut struct {
	makespan  sim.Time
	events    sim.EventStats
	tasks     int64
	messages  int64
	fetches   int64
	evictions int64
	refetches int64
	forced    int64
	retries   int64
	moved     int64
	flows     flowSampler
}

// digest is the run's virtual output; it must repeat exactly.
func (o runOut) digest() string {
	return fmt.Sprintf("%v %d/%d/%d %d/%d %d/%d/%d/%d/%d/%d", float64(o.makespan),
		o.events.Scheduled, o.events.Fired, o.events.Cancelled, o.tasks, o.messages,
		o.fetches, o.evictions, o.refetches, o.forced, o.retries, o.moved)
}

// heapSampler is a core.Observer that samples the live heap every 64
// task completions, so peak_heap_mb sees the heap in the middle of a
// run.
type heapSampler struct{ n int }

func (h *heapSampler) TaskDone(*charm.Task) {
	if h.n++; h.n%64 == 0 {
		noteHeap()
	}
}

// flowSampler is a core.Observer that samples the memory system's live
// flow count at every task completion.
type flowSampler struct {
	mem        *memsim.System
	sum, count int64
}

func (f *flowSampler) TaskDone(*charm.Task) {
	f.sum += int64(f.mem.ActiveFlows())
	f.count++
}

// runner is the part of the stencil and matmul apps the sweep drives.
type runner interface{ Run() (sim.Time, error) }

// fullOptions are the paper's manager options for a mode on the full
// machine, as the figure drivers set them.
func fullOptions(mode core.Mode) core.Options {
	opts := core.DefaultOptions(mode)
	opts.HBMReserve = exp.Full.HBMReserve()
	return opts
}

// fullEnv builds a fresh full-scale environment: the 64-PE KNL.
func fullEnv(opts core.Options) *kernels.Env {
	return kernels.NewEnv(kernels.EnvConfig{
		Spec:   exp.Full.Machine(),
		NumPEs: exp.Full.NumPEs(),
		Opts:   opts,
		Params: charm.DefaultParams(),
	})
}

func (w *sweep) runOne(r sweepRun, tr *tracer, id string) (runOut, error) {
	var out runOut
	root := tr.begin("sweep.run", id, -1)
	defer tr.end(root)
	b := tr.begin("kernels.build", id, root)
	env := fullEnv(fullOptions(r.Mode))
	defer env.Close()
	var app runner
	var err error
	if r.App == "stencil" {
		app, err = kernels.NewStencil(env.MG, exp.Full.StencilConfig(r.Size))
	} else {
		app, err = kernels.NewMatMul(env.MG, exp.Full.MatMulConfig(r.Size))
	}
	tr.end(b)
	if err != nil {
		return out, err
	}
	env.MG.AddObserver(&heapSampler{})
	if tr != nil {
		out.flows.mem = env.Mach.Mem
		env.MG.AddObserver(&out.flows)
	}
	rs := tr.begin("kernels.run", id, root)
	out.makespan, err = app.Run()
	tr.end(rs)
	if err != nil {
		return out, err
	}
	st := &env.MG.Stats
	out.events = env.Eng.EventStats()
	out.tasks, out.messages = env.RT.Stats.TasksExecuted, env.RT.Stats.MessagesSent
	out.fetches, out.evictions, out.refetches = st.Fetches, st.Evictions, st.Refetches
	out.forced, out.retries, out.moved = st.ForcedEvictions, st.StageRetries, st.BytesFetched+st.BytesEvicted
	return out, nil
}

func (w *sweep) measure(budget time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	var first []runOut
	var passWalls, lat []float64
	var tasks float64
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start)+time.Duration(passWalls[len(passWalls)-1]*float64(time.Second)) <= budget; pass++ {
		p0 := time.Now()
		outs := make([]runOut, len(w.runs))
		for i, r := range w.runs {
			id := fmt.Sprintf("p%d/%s/%d/%v", pass, r.App, r.Size>>20, r.Mode)
			t0 := time.Now()
			o, err := w.runOne(r, tr, id)
			lat = append(lat, ms(time.Since(t0)))
			noteHeap()
			m.attempted++
			if err != nil {
				m.failed++
				m.notes = append(m.notes, fmt.Sprintf("run %s failed: %v", id, err))
				continue
			}
			if pass > 0 && o.digest() != first[i].digest() {
				m.failed++
				m.notes = append(m.notes, fmt.Sprintf("run %s: virtual output differs from pass 0", id))
			}
			outs[i] = o
			tasks += float64(o.tasks)
		}
		passWalls = append(passWalls, time.Since(p0).Seconds())
		if pass == 0 {
			first = outs
			m.failed += w.checkShape(outs, m)
		}
	}
	m.wall = median(passWalls)
	m.tasks = tasks
	m.e2e["sim_tasks_per_s"] = tasks / sum(passWalls)
	m.timing(m.layer, "op_p50_ms", "op_tail_ms", lat)
	var makespan float64
	l := m.layer
	var flowSum, flowN int64
	for _, o := range first {
		makespan += float64(o.makespan)
		l["sim.events"] += float64(o.events.Fired)
		l["sim.events_cancelled"] += float64(o.events.Cancelled)
		l["charm.tasks"] += float64(o.tasks)
		l["charm.messages"] += float64(o.messages)
		l["core.fetches"] += float64(o.fetches)
		l["core.evictions"] += float64(o.evictions)
		l["core.refetches"] += float64(o.refetches)
		l["core.forced_evictions"] += float64(o.forced)
		l["core.stage_retries"] += float64(o.retries)
		l["core.gb_moved"] += float64(o.moved) / float64(gb)
		flowSum += o.flows.sum
		flowN += o.flows.count
	}
	m.layer["sim_makespan_s"] = makespan
	if l["core.fetches"] > 0 {
		l["core.useful_fetch_ratio"] = 1 - l["core.refetches"]/l["core.fetches"]
	}
	if flowN > 0 {
		l["memsim.live_flows_mean"] = float64(flowSum) / float64(flowN)
	}
	if tr != nil {
		l["kernels.build_ms"] = median(tr.durations("kernels.build"))
	}
	m.notes = append(m.notes, fmt.Sprintf("sweep: passes of %.2f s, stencil reduced %v MiB, matmul total %v MiB",
		passWalls, mib(w.plan.StencilReduced[:]), mib(w.plan.MatMulTotal[:])))
	return m, nil
}

// checkShape checks the paper's result at every size point of a pass:
// MultiIO beats Naive, and on the stencil SingleIO is the slowest of
// the three movement modes. It returns the number of violations.
func (w *sweep) checkShape(outs []runOut, m *measurement) int64 {
	var bad int64
	for i := 0; i+len(sweepModes) <= len(outs); i += len(sweepModes) {
		t := map[core.Mode]sim.Time{}
		for j, mode := range sweepModes {
			t[mode] = outs[i+j].makespan
		}
		r := w.runs[i]
		ok := t[core.MultiIO] < t[core.Baseline]
		if r.App == "stencil" {
			ok = ok && t[core.SingleIO] > t[core.NoIO] && t[core.SingleIO] > t[core.MultiIO]
		}
		if !ok {
			bad++
			m.notes = append(m.notes, fmt.Sprintf("shape violated: %s at %d MiB: %v", r.App, r.Size>>20, t))
		}
	}
	return bad
}

func mib(xs []int64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x >> 20
	}
	return out
}
