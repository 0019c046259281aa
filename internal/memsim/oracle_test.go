package memsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/hetmem/hetmem/internal/sim"
)

// oracleSystem is the per-flow progressive-filling allocator that the
// class-based one replaced, kept verbatim as a differential oracle: the
// class-based allocator must reproduce its rates and completion times
// bit for bit. It drains the resources of its own System's nodes, so
// an oracle run and a real run never share allocator scratch state.
type oracleSystem struct {
	e          *sim.Engine
	flows      []*oracleFlow
	lastUpdate sim.Time
	completion sim.EventHandle
}

type oracleFlow struct {
	demands   []Demand
	remaining float64
	cap       float64
	rate      float64
	frozen    bool
	finished  sim.Time
	done      bool
	onDone    func()
}

func (s *oracleSystem) startFlow(spec FlowSpec) *oracleFlow {
	f := &oracleFlow{
		demands:   append([]Demand(nil), spec.Demands...),
		remaining: spec.Bytes,
		cap:       spec.RateCap,
		onDone:    spec.OnDone,
	}
	if f.cap <= 0 {
		f.cap = math.Inf(1)
	}
	if spec.Bytes <= byteEps {
		f.done = true
		f.finished = s.e.Now()
		if f.onDone != nil {
			s.e.Schedule(s.e.Now(), f.onDone)
		}
		return f
	}
	s.advance()
	s.flows = append(s.flows, f)
	s.reallocate()
	return f
}

func (s *oracleSystem) advance() {
	now := s.e.Now()
	dt := now - s.lastUpdate
	if dt <= 0 {
		s.lastUpdate = now
		return
	}
	for _, f := range s.flows {
		moved := f.rate * dt
		f.remaining -= moved
		if f.remaining < 0 {
			moved += f.remaining
			f.remaining = 0
		}
		for _, d := range f.demands {
			if d.Access == Read {
				d.Node.BytesRead += moved
			} else {
				d.Node.BytesWritten += moved
			}
		}
	}
	s.lastUpdate = now
}

func (s *oracleSystem) reallocate() {
	live := s.flows[:0]
	for _, f := range s.flows {
		if f.remaining <= byteEps {
			s.finish(f)
		} else {
			live = append(live, f)
		}
	}
	for i := len(live); i < len(s.flows); i++ {
		s.flows[i] = nil
	}
	s.flows = live

	s.completion.Cancel()
	s.completion = sim.EventHandle{}
	if len(s.flows) == 0 {
		return
	}

	// Gather the distinct resources in first-use order.
	var resources []*resource
	for _, f := range s.flows {
		f.rate = 0
		f.frozen = false
		for _, d := range f.demands {
			for _, r := range d.resources() {
				if !r.seen {
					r.seen = true
					r.remCap = r.capacity
					r.users = 0
					resources = append(resources, r)
				}
				r.users++
			}
		}
	}
	defer func() {
		for _, r := range resources {
			r.seen = false
		}
	}()

	// Progressive filling: raise all unfrozen flows' rates together
	// until each hits its cap or saturates one of its resources.
	unfrozen := len(s.flows)
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, r := range resources {
			if r.users > 0 {
				if v := r.remCap / float64(r.users); v < inc {
					inc = v
				}
			}
		}
		for _, f := range s.flows {
			if !f.frozen {
				if v := f.cap - f.rate; v < inc {
					inc = v
				}
			}
		}
		if inc < 0 {
			inc = 0
		}
		for _, f := range s.flows {
			if f.frozen {
				continue
			}
			f.rate += inc
			for _, d := range f.demands {
				for _, r := range d.resources() {
					r.remCap -= inc
				}
			}
		}
		progressed := false
		for _, f := range s.flows {
			if f.frozen {
				continue
			}
			saturated := f.rate >= f.cap-1e-9*f.cap
			if !saturated {
			scan:
				for _, d := range f.demands {
					for _, r := range d.resources() {
						if r.remCap <= 1e-9*r.capacity {
							saturated = true
							break scan
						}
					}
				}
			}
			if saturated {
				f.frozen = true
				unfrozen--
				progressed = true
				for _, d := range f.demands {
					for _, r := range d.resources() {
						r.users--
					}
				}
			}
		}
		if !progressed {
			panic("memsim: progressive filling failed to converge")
		}
	}

	// Schedule the next completion.
	next := math.Inf(1)
	for _, f := range s.flows {
		if f.rate <= 0 {
			panic(fmt.Sprintf("memsim: flow starved (rate 0, %g bytes left)", f.remaining))
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	s.completion = s.e.After(next, func() {
		s.advance()
		s.reallocate()
	})
}

func (s *oracleSystem) finish(f *oracleFlow) {
	f.done = true
	f.rate = 0
	f.remaining = 0
	f.finished = s.e.Now()
	if f.onDone != nil {
		s.e.Schedule(s.e.Now(), f.onDone)
	}
}

// oraclePlan is a random workload for the differential test: a machine
// whose buses may be narrower than read+write, a small pool of demand
// signatures and rate caps that the flows draw from (so classes with
// many members, and same-node read+write copies that charge the bus
// twice, are common), and start times that both coincide and fall in
// the middle of other flows' lifetimes.
type oraclePlan struct {
	specs []NodeSpec
	flows []oracleFlowPlan
}

type oracleFlowPlan struct {
	start   sim.Time
	bytes   float64
	cap     float64  // <= 0: uncapped
	demands [][2]int // (node, access) pairs
}

// Generate implements quick.Generator.
func (oraclePlan) Generate(r *rand.Rand, size int) reflect.Value {
	var p oraclePlan
	kinds := []NodeKind{HBM, DDR, NVM}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		read := float64(20+r.Intn(400)) * gb
		write := read * (0.5 + r.Float64()/2)
		sp := NodeSpec{Name: fmt.Sprint("n", i), Kind: kinds[i], Cap: 1 << 40, ReadBW: read, WriteBW: write}
		if r.Intn(2) == 0 {
			sp.TotalBW = (read + write) * (0.4 + r.Float64()/2)
		}
		p.specs = append(p.specs, sp)
	}
	node := func() int { return r.Intn(len(p.specs)) }
	var sigs [][][2]int
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		switch r.Intn(4) {
		case 0: // kernel stream
			sigs = append(sigs, [][2]int{{node(), int(Read)}})
		case 1: // write-back
			sigs = append(sigs, [][2]int{{node(), int(Write)}})
		case 2: // migration memcpy; src may equal dst
			sigs = append(sigs, [][2]int{{node(), int(Read)}, {node(), int(Write)}})
		default: // same-node copy: the bus is charged twice
			n := node()
			sigs = append(sigs, [][2]int{{n, int(Read)}, {n, int(Write)}})
		}
	}
	caps := []float64{0, float64(1+r.Intn(16)) * gb, float64(1+r.Intn(64)) * gb}
	starts := []sim.Time{0, 0.01, 0.02}
	for i, n := 0, 1+r.Intn(24); i < n; i++ {
		f := oracleFlowPlan{
			start:   starts[r.Intn(len(starts))],
			bytes:   float64(1+r.Intn(64)) * (1 << 24),
			cap:     caps[r.Intn(len(caps))],
			demands: sigs[r.Intn(len(sigs))],
		}
		if r.Intn(3) == 0 {
			f.start = sim.Time(r.Float64() * 0.05)
		}
		if r.Intn(20) == 0 {
			f.bytes = 0
		}
		p.flows = append(p.flows, f)
	}
	return reflect.ValueOf(p)
}

// oracleRun is what one allocator did with a plan, as float bit
// patterns: every started flow's rate after each flow start and each
// completion callback, every flow's completion time, and each node's
// byte counters.
type oracleRun struct {
	rates    []uint64
	finished []uint64
	bytes    []uint64
}

// runPlan drives plan through start on sys's engine. start begins a
// flow and returns a probe for its current rate.
func runPlan(plan oraclePlan, sys *System, start func(spec FlowSpec) func() float64) oracleRun {
	e := sys.Engine()
	out := oracleRun{finished: make([]uint64, len(plan.flows))}
	var probes []func() float64
	snapshot := func() {
		for _, rate := range probes {
			out.rates = append(out.rates, math.Float64bits(rate()))
		}
	}
	for i, pf := range plan.flows {
		i, pf := i, pf
		var demands []Demand
		for _, d := range pf.demands {
			demands = append(demands, Demand{Node: sys.Node(d[0]), Access: Access(d[1])})
		}
		e.Schedule(pf.start, func() {
			probes = append(probes, start(FlowSpec{
				Bytes:   pf.bytes,
				Demands: demands,
				RateCap: pf.cap,
				OnDone: func() {
					out.finished[i] = math.Float64bits(e.Now())
					snapshot()
				},
			}))
			snapshot()
		})
	}
	e.RunAll()
	for _, n := range sys.nodes {
		out.bytes = append(out.bytes, math.Float64bits(n.BytesRead), math.Float64bits(n.BytesWritten))
	}
	return out
}

// TestClassSolverMatchesPerFlowOracle checks the class-based allocator
// against the per-flow one it replaced under bitwise equality: not a
// tolerance, because the sweep's virtual-time output (and every
// committed snapshot) depends on the exact float sums.
func TestClassSolverMatchesPerFlowOracle(t *testing.T) {
	var sharedClass, doubleBus bool
	check := func(plan oraclePlan) bool {
		sys := NewSystem(sim.NewEngine(1), plan.specs)
		got := runPlan(plan, sys, func(spec FlowSpec) func() float64 {
			f := sys.StartFlow(spec)
			for _, c := range sys.classes {
				sharedClass = sharedClass || c.n > 1
				for j, r := range c.res {
					for _, q := range c.res[j+1:] {
						doubleBus = doubleBus || q == r
					}
				}
			}
			return f.Rate
		})
		oracle := &oracleSystem{e: sim.NewEngine(1)}
		want := runPlan(plan, NewSystem(oracle.e, plan.specs), func(spec FlowSpec) func() float64 {
			f := oracle.startFlow(spec)
			return func() float64 { return f.rate }
		})
		if !reflect.DeepEqual(got, want) {
			t.Logf("rates    %x\noracle   %x\nfinished %x\noracle   %x\nbytes    %x\noracle   %x",
				got.rates, want.rates, got.finished, want.finished, got.bytes, want.bytes)
			return false
		}
		return sys.ActiveFlows() == 0 && len(sys.classes) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if !sharedClass || !doubleBus {
		t.Fatalf("generator never produced a shared class (%v) or a same-node copy (%v)", sharedClass, doubleBus)
	}
}
