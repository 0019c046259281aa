package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/serve"
)

// Everything a workload feeds the program is drawn here from the seed,
// so the same seed always gives the same inputs and the program sees
// only the generated values.

const gb = exp.GB

// sweepModes are the four strategies of Figs. 8 and 9, Naive first.
var sweepModes = []core.Mode{core.Baseline, core.SingleIO, core.NoIO, core.MultiIO}

// sweepPlan is the sweep workload's input: three working-set sizes per
// app, one from each third of the paper's x-axis.
type sweepPlan struct {
	StencilReduced [3]int64 // Fig 8 x-axis: reduced working set, 2-8 GB
	MatMulTotal    [3]int64 // Fig 9 x-axis: total working set, 24-54 GB
}

// newSweepPlan draws the sizes. The small and large point of each app
// are drawn as an antithetic pair (one moves down as the other moves
// up), so the host cost and the summed makespan of a pass change little
// from seed to seed while the sizes themselves do. Stencil cost scales
// with the chare count, i.e. with 1/reduced, so its pair is drawn in
// that space.
func newSweepPlan(seed int64) sweepPlan {
	rng := rand.New(rand.NewSource(seed))
	var p sweepPlan
	u := rng.Float64()
	inv := [3]float64{0.5 - 0.05*u, 0.3125 + 0.04*(rng.Float64()-0.5), 0.125 + 0.05*u}
	for i, x := range inv {
		p.StencilReduced[i] = snapReduced(1 / x)
	}
	i := int64(rng.Intn(9))
	j := int64(rng.Intn(5)) - 2
	p.MatMulTotal = [3]int64{(24 + i) * gb, (39 + j) * gb, (54 - i) * gb}
	return p
}

// snapReduced rounds a reduced working set in GB to a 64 MiB multiple,
// which the 64-PE stencil config divides evenly, within the 2-8 GB axis.
func snapReduced(gbs float64) int64 {
	const q = 64 << 20
	b := int64(math.Round(gbs*float64(gb)/q)) * q
	return min(max(b, 2*gb), 8*gb)
}

// sweepRun is one simulator run of the sweep.
type sweepRun struct {
	App  string // "stencil" or "matmul"
	Size int64
	Mode core.Mode
}

// runs lists the pass in figure order: per app, per size, per mode.
func (p sweepPlan) runs() []sweepRun {
	var out []sweepRun
	for _, r := range p.StencilReduced {
		for _, m := range sweepModes {
			out = append(out, sweepRun{"stencil", r, m})
		}
	}
	for _, t := range p.MatMulTotal {
		for _, m := range sweepModes {
			out = append(out, sweepRun{"matmul", t, m})
		}
	}
	return out
}

// Serve workload: offered rates and phase sizes. The rates are fixed
// sessions per second, set against this session mix on a 2-core Xeon,
// where the daemon completes about 14 sessions/s back to back: low
// keeps sessions apart, high overlaps them often while staying under
// capacity. The saturating batch runs serveBatch sessions.
const (
	serveLowRate  = 3.0
	serveHighRate = 8.0
	serveBatch    = 45
)

// serveTenants are the daemon's tenants; each gets a third of the
// grantable HBM and a fair-lane weight.
var serveTenants = []struct {
	Name   string
	Weight int
}{{"alpha", 2}, {"beta", 1}, {"gamma", 1}}

var (
	serveKernels    = []string{"stencil", "shift", "matmul"}
	serveStrategies = []string{"single", "noio", "multi"}
)

// serveSpec is a full-scale session of the given kernel: the X13
// session shape (3 GB total, 1 GB active, 1.5 GB grant).
func serveSpec(tenant, kernel, strategy string, traced bool) serve.WorkloadSpec {
	return serve.WorkloadSpec{
		Tenant:     tenant,
		Kernel:     kernel,
		Strategy:   strategy,
		Bytes:      3 * gb,
		Reduced:    gb,
		Footprint:  3 * gb / 2,
		Iterations: 2,
		Sweeps:     4,
		Trace:      traced,
	}
}

// arrival is one open-loop submission, due At after its phase starts.
type arrival struct {
	At   time.Duration
	Spec serve.WorkloadSpec
}

// servePlan is the serve workload's input.
type servePlan struct {
	Low, High     []arrival
	Batch, Closed []serve.WorkloadSpec
}

// newServePlan draws the session mix and the arrival times; the closed
// batch runs closedRounds sessions of each combination. Each phase
// cycles through the kernel x strategy combinations, tracing the first
// pass through them (one session in four when the phase holds four
// passes), then shuffles the order and deals the sessions to tenants in
// turn. The arrivals are a Poisson process conditioned on its count
// (sorted uniform times over count/rate seconds), so the offered rate
// is exact.
func newServePlan(seed int64, lowN, highN, closedRounds int) servePlan {
	rng := rand.New(rand.NewSource(seed))
	combos := len(serveKernels) * len(serveStrategies)
	mix := func(n int) []serve.WorkloadSpec {
		specs := make([]serve.WorkloadSpec, n)
		for i, j := range rng.Perm(n) {
			c := j % combos
			specs[i] = serveSpec(serveTenants[i%len(serveTenants)].Name,
				serveKernels[c/len(serveStrategies)], serveStrategies[c%len(serveStrategies)],
				j%(4*combos) < combos)
		}
		return specs
	}
	open := func(n int, rate float64) []arrival {
		span := float64(n) / rate
		at := make([]float64, n)
		for i := range at {
			at[i] = rng.Float64() * span
		}
		sort.Float64s(at)
		out := make([]arrival, n)
		for i, spec := range mix(n) {
			out[i] = arrival{At: time.Duration(at[i] * float64(time.Second)), Spec: spec}
		}
		return out
	}
	return servePlan{Low: open(lowN, serveLowRate), High: open(highN, serveHighRate), Batch: mix(serveBatch), Closed: mix(closedRounds * combos)}
}

// captureSpec is one capture of the trace corpus.
type captureSpec struct {
	App    string // "stencil" or "matmul"
	Mode   core.Mode
	Policy string // eviction victim policy
	Size   int64  // stencil reduced working set
	Grid   int    // matmul block grid (tasks = Grid^3)
}

// corpusPolicies are the eviction victim policies the corpus mixes.
var corpusPolicies = []string{"decl", "lru", "lookahead"}

// newCorpus draws the trace corpus: three stencil and three matmul
// captures at roughly 7k-14k tasks. Each app covers the three movement
// modes, one per size slot; the seed jitters each slot's size, assigns
// the three eviction policies and orders the corpus. Per-capture cost
// follows its size, so the slots keep the pass cost and its median
// capture steady from seed to seed.
func newCorpus(seed int64) []captureSpec {
	rng := rand.New(rand.NewSource(seed))
	var out []captureSpec
	pp := rng.Perm(3)
	for i, slot := range []struct {
		gbs  float64
		mode core.Mode
	}{{4.25, core.NoIO}, {5.5, core.MultiIO}, {7.5, core.SingleIO}} {
		r := snapReduced(slot.gbs + 0.25*(rng.Float64()-0.5))
		out = append(out, captureSpec{App: "stencil", Mode: slot.mode, Policy: corpusPolicies[pp[i]], Size: r})
	}
	pp = rng.Perm(3)
	for i, slot := range []struct {
		grid int
		mode core.Mode
	}{{19, core.MultiIO}, {21, core.SingleIO}, {23, core.NoIO}} {
		out = append(out, captureSpec{App: "matmul", Mode: slot.mode, Policy: corpusPolicies[pp[i]], Size: 24 * gb, Grid: slot.grid + rng.Intn(2)})
	}
	order := rng.Perm(len(out))
	shuffled := make([]captureSpec, len(out))
	for i, j := range order {
		shuffled[i] = out[j]
	}
	return shuffled
}
