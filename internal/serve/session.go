package serve

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/adapt"
	"github.com/hetmem/hetmem/internal/audit"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/trace"
)

// State is a session's lifecycle stage.
type State int

const (
	// Queued sessions passed validation but wait for budget.
	Queued State = iota
	// Running sessions own a budget grant and advance each window.
	Running
	// Done sessions completed their workload.
	Done
	// Failed sessions deadlocked or tripped an audit invariant.
	Failed
	// Canceled sessions were killed by the client or by drain.
	Canceled
)

// String names the state for JSON and tables.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Finished reports whether the state is terminal.
func (s State) Finished() bool { return s == Done || s == Failed || s == Canceled }

// WorkloadSpec is one submission: a named kernel plus the knobs the
// single-workload drivers expose as flags. Zero value fields take
// machine-scaled defaults (see normalize).
type WorkloadSpec struct {
	// Tenant names the submitting tenant (required).
	Tenant string `json:"tenant"`
	// Kernel picks the workload: "stencil", "matmul" or "shift"
	// (plus any kernel registered via RegisterKernel).
	Kernel string `json:"kernel"`

	// Bytes is the total working set. Default: 2x the session
	// footprint (an out-of-core run).
	Bytes int64 `json:"bytes,omitempty"`
	// Reduced is the active working set (stencil reduced set, shift
	// hot set). Default: half the footprint.
	Reduced int64 `json:"reduced,omitempty"`
	// Iterations is the outer iteration count. Default 2 (shift: one
	// pre- and one post-shift iteration).
	Iterations int `json:"iterations,omitempty"`
	// Sweeps is the temporal-tiling depth. Default 20.
	Sweeps int `json:"sweeps,omitempty"`

	// Footprint is the HBM grant the session asks for. Default:
	// Reduced plus half, i.e. the active set with staging headroom.
	Footprint int64 `json:"footprint,omitempty"`

	// Strategy is the data-movement mode: "single", "noio" or
	// "multi" (default "multi").
	Strategy string `json:"strategy,omitempty"`
	// IOThreads sets the IO thread count (single strategy only).
	IOThreads int `json:"io_threads,omitempty"`
	// PrefetchDepth bounds in-flight prefetches (multi strategy).
	PrefetchDepth int `json:"prefetch_depth,omitempty"`
	// EvictPolicy picks the eviction victim policy: "decl", "lru" or
	// "lookahead".
	EvictPolicy string `json:"evict_policy,omitempty"`
	// EvictLazily defers eviction until capacity pressure.
	EvictLazily bool `json:"evict_lazily,omitempty"`
	// Adapt attaches the online adaptive controller.
	Adapt bool `json:"adapt,omitempty"`
	// Trace records a per-session JSONL capture, downloadable from
	// the trace endpoint.
	Trace bool `json:"trace,omitempty"`
	// Seed overrides the session engine seed (default BaseSeed+id).
	Seed int64 `json:"seed,omitempty"`
}

// App is a seedable workload running on a session's private engine.
// Start seeds the first wave of work without driving the engine; the
// scheduler then advances the engine window by window until Done.
type App interface {
	Start()
	Done() bool
	// FinishedAt returns the engine-local completion time; valid
	// once Done reports true.
	FinishedAt() sim.Time
}

// AppBuilder instantiates a kernel on a freshly built session
// environment. The spec is fully normalized (all defaults resolved).
type AppBuilder func(env *kernels.Env, spec WorkloadSpec) (App, error)

// stencilApp adapts kernels.StencilApp to App.
type stencilApp struct{ *kernels.StencilApp }

func (a stencilApp) FinishedAt() sim.Time { return a.IterEnd[len(a.IterEnd)-1] }

// shiftApp adapts kernels.ShiftApp to App.
type shiftApp struct{ *kernels.ShiftApp }

func (a shiftApp) FinishedAt() sim.Time { return a.IterEnd[len(a.IterEnd)-1] }

// matmulApp adapts kernels.MatMulApp to App.
type matmulApp struct{ *kernels.MatMulApp }

func (a matmulApp) FinishedAt() sim.Time { return a.End }

// iterApp is implemented by kernels with an iteration-boundary hook;
// Adapt submissions wire the controller's Barrier there so strategy
// switches happen at the quiescent points, exactly like X9/X10.
type iterApp interface{ SetOnIteration(func(int, func())) }

func (a stencilApp) SetOnIteration(f func(int, func())) { a.OnIteration = f }
func (a shiftApp) SetOnIteration(f func(int, func()))   { a.OnIteration = f }

// buildStencil is the "stencil" kernel builder.
func buildStencil(env *kernels.Env, spec WorkloadSpec) (App, error) {
	cfg := kernels.DefaultStencilConfig()
	cfg.NumPEs = env.RT.NumPEs()
	cfg.TotalBytes = spec.Bytes
	cfg.ReducedBytes = spec.Reduced
	cfg.Iterations = spec.Iterations
	cfg.Sweeps = spec.Sweeps
	app, err := kernels.NewStencil(env.MG, cfg)
	if err != nil {
		return nil, err
	}
	return stencilApp{app}, nil
}

// buildShift is the "shift" kernel builder: the hot set is Reduced,
// the shift widens it to Bytes.
func buildShift(env *kernels.Env, spec WorkloadSpec) (App, error) {
	pes := env.RT.NumPEs()
	chares := 4 * pes
	pre := spec.Iterations / 2
	if pre < 1 {
		pre = 1
	}
	post := spec.Iterations - pre
	if post < 1 {
		post = 1
	}
	cfg := kernels.ShiftConfig{
		HotBytes:     roundUp(spec.Reduced, int64(chares)),
		ColdBytes:    roundUp(spec.Bytes-spec.Reduced, int64(chares)),
		NumChares:    chares,
		PreIters:     pre,
		PostIters:    post,
		Sweeps:       spec.Sweeps,
		NumPEs:       pes,
		FlopsPerByte: 1.0,
	}
	app, err := kernels.NewShift(env.MG, cfg)
	if err != nil {
		return nil, err
	}
	return shiftApp{app}, nil
}

// buildMatMul is the "matmul" kernel builder.
func buildMatMul(env *kernels.Env, spec WorkloadSpec) (App, error) {
	cfg := kernels.DefaultMatMulConfig()
	cfg.NumPEs = env.RT.NumPEs()
	cfg.TotalBytes = spec.Bytes
	cfg.Grid = kernels.GridFor(spec.Bytes, spec.Footprint, cfg.NumPEs)
	app, err := kernels.NewMatMul(env.MG, cfg)
	if err != nil {
		return nil, err
	}
	return matmulApp{app}, nil
}

// builtinKernels returns the default kernel registry.
func builtinKernels() map[string]AppBuilder {
	return map[string]AppBuilder{
		"stencil": buildStencil,
		"shift":   buildShift,
		"matmul":  buildMatMul,
	}
}

// roundUp rounds n up to a positive multiple of q.
func roundUp(n, q int64) int64 {
	if n < q {
		return q
	}
	if r := n % q; r != 0 {
		n += q - r
	}
	return n
}

// Session is one submission's job record. Fields are owned by the
// scheduler; the HTTP layer reads them under the server mutex.
type Session struct {
	id     int
	ID     string
	Tenant string
	Spec   WorkloadSpec

	State State
	// Err describes why the session Failed (or was Canceled).
	Err string

	// Arrival, Started and Finished are global virtual times;
	// Makespan() is Finished-Arrival and includes queue wait.
	Arrival  sim.Time
	Started  sim.Time
	Finished sim.Time

	// Footprint is the HBM grant (bytes).
	Footprint int64

	opts core.Options
	ten  *tenant

	// base is the global virtual time at which the session's private
	// engine (whose clock starts at 0) was started.
	base sim.Time
	// env, app, ctl and rec are the live simulation. The terminal
	// transition drops them, so a finished session holds only its
	// metrics snapshot and capture, not its engine.
	env *kernels.Env
	app App
	ctl *adapt.Controller
	rec *trace.Recorder
	// capture is the finished recording of a traced session, kept
	// after rec is dropped.
	capture *trace.Capture

	// released guards exactly-once budget release.
	released bool

	// metrics is the manager's final counter snapshot, captured at
	// the terminal transition (the engine is closed afterwards).
	metrics   audit.Snapshot
	hasMetric bool
}

// Makespan returns arrival-to-finish in virtual seconds (0 while
// unfinished).
func (s *Session) Makespan() sim.Time {
	if !s.State.Finished() {
		return 0
	}
	return s.Finished - s.Arrival
}

// MetricsSnapshot returns the session's audit/metrics counters: the
// live manager's while running, the preserved final snapshot once
// finished.
func (s *Session) MetricsSnapshot() (audit.Snapshot, bool) {
	if s.hasMetric {
		return s.metrics, true
	}
	if s.env == nil {
		return audit.Snapshot{}, false
	}
	return s.env.MG.MetricsSnapshot()
}

// TraceCapture returns the session's recorded capture, or nil if the
// session was not submitted with Trace or never started.
func (s *Session) TraceCapture() *trace.Capture {
	if s.rec != nil {
		return s.rec.Capture()
	}
	return s.capture
}
