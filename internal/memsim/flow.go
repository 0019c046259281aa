package memsim

import (
	"fmt"
	"math"
	"slices"

	"github.com/hetmem/hetmem/internal/sim"
)

// Access selects which bandwidth direction of a node a flow consumes.
type Access int

const (
	// Read consumes a node's read bandwidth.
	Read Access = iota
	// Write consumes a node's write bandwidth.
	Write
)

// Demand names one (node, direction) bandwidth resource.
type Demand struct {
	Node   *Node
	Access Access
}

// resources returns the bandwidth pools a demand drains: its direction
// pool plus the node's shared bus. A flow reading and writing the same
// node therefore consumes bus capacity twice per byte-rate, as a real
// same-node memcpy does.
func (d Demand) resources() [2]*resource {
	if d.Access == Read {
		return [2]*resource{&d.Node.read, &d.Node.total}
	}
	return [2]*resource{&d.Node.write, &d.Node.total}
}

// Flow is an in-flight byte stream. All of its demands are consumed at
// the flow's single current rate.
type Flow struct {
	sys       *System
	class     *flowClass // nil for a flow that completed at start
	remaining float64    // bytes
	total     float64
	rate      float64 // current granted rate
	started   sim.Time
	finished  sim.Time
	done      bool
	waiters   []*sim.Proc
	onDone    func()
}

// flowClass groups the live flows that share a rate cap and an
// identical demand list. Progressive filling treats every member alike
// — each gets the same increment in a round and all freeze in the same
// round — so the allocator runs over classes instead of flows.
type flowClass struct {
	demands []Demand
	// res lists every demand's pools in demand order, built once. A
	// pool drained by two demands (same-node read and write share the
	// bus) appears twice, as it is charged twice.
	res    []*resource
	cap    float64 // bytes/second; +Inf when uncapped
	n      int     // live member flows
	rate   float64 // allocator scratch: the members' common rate
	frozen bool    // allocator scratch
}

// FlowSpec describes a flow to start.
type FlowSpec struct {
	// Bytes is the volume to move. Zero-byte flows complete
	// immediately.
	Bytes float64
	// Demands lists every bandwidth resource the flow occupies
	// simultaneously (e.g. source read + destination write for a
	// migration memcpy).
	Demands []Demand
	// RateCap bounds the flow's rate in bytes/second; <= 0 means
	// uncapped. Use the per-core streaming rate for kernel flows.
	RateCap float64
	// OnDone, if non-nil, runs (as an engine callback) when the flow
	// completes.
	OnDone func()
}

const byteEps = 1e-3 // bytes below which a flow counts as complete

// StartFlow begins a flow and returns it. The caller can Wait on it or
// rely on OnDone.
func (s *System) StartFlow(spec FlowSpec) *Flow {
	if !(spec.Bytes >= 0) || math.IsInf(spec.Bytes, 1) {
		panic(fmt.Sprintf("memsim: flow size %v is not a finite non-negative byte count", spec.Bytes))
	}
	if math.IsNaN(spec.RateCap) {
		panic("memsim: NaN flow rate cap")
	}
	if len(spec.Demands) == 0 {
		panic("memsim: flow with no demands")
	}
	for _, d := range spec.Demands {
		if d.Node == nil {
			panic("memsim: flow demand with nil node")
		}
	}
	f := &Flow{
		sys:       s,
		remaining: spec.Bytes,
		total:     spec.Bytes,
		started:   s.e.Now(),
		onDone:    spec.OnDone,
	}
	if spec.Bytes <= byteEps {
		// Trivially complete; fire OnDone asynchronously for
		// consistency with real flows.
		f.done = true
		f.finished = s.e.Now()
		if f.onDone != nil {
			s.e.Schedule(s.e.Now(), f.onDone)
		}
		return f
	}
	s.advance()
	rateCap := spec.RateCap
	if rateCap <= 0 {
		rateCap = math.Inf(1)
	}
	f.class = s.join(spec.Demands, rateCap)
	s.flows = append(s.flows, f)
	s.reallocate()
	return f
}

// join adds one member to the live class with the given cap and demand
// list, creating the class on first use.
func (s *System) join(demands []Demand, cap float64) *flowClass {
	for _, c := range s.classes {
		if c.cap == cap && slices.Equal(c.demands, demands) {
			c.n++
			return c
		}
	}
	c := &flowClass{demands: append([]Demand(nil), demands...), cap: cap, n: 1}
	for _, d := range c.demands {
		r := d.resources()
		c.res = append(c.res, r[0], r[1])
	}
	s.classes = append(s.classes, c)
	return c
}

// leave drops one member from c, and c itself once it is empty, so the
// class list tracks live signatures only. Class order carries no
// meaning to the allocator.
func (s *System) leave(c *flowClass) {
	if c.n--; c.n > 0 {
		return
	}
	i, last := slices.Index(s.classes, c), len(s.classes)-1
	s.classes[i] = s.classes[last]
	s.classes[last] = nil
	s.classes = s.classes[:last]
}

// Wait parks p until the flow completes and returns its duration.
func (f *Flow) Wait(p *sim.Proc) sim.Time {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.Suspend()
	}
	return f.finished - f.started
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Rate returns the flow's current granted rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes left to move (advanced to current time).
func (f *Flow) Remaining() float64 {
	f.sys.advance()
	return f.remaining
}

// Duration returns how long the flow ran; valid only after completion.
func (f *Flow) Duration() sim.Time {
	if !f.done {
		panic("memsim: Duration of unfinished flow")
	}
	return f.finished - f.started
}

// advance integrates all flow progress from lastUpdate to now.
func (s *System) advance() {
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
		for _, d := range f.class.demands {
			if d.Access == Read {
				d.Node.BytesRead += moved
			} else {
				d.Node.BytesWritten += moved
			}
		}
	}
	s.lastUpdate = now
}

// reallocate recomputes max-min fair rates for all flows (progressive
// filling over flow classes), completes any finished flows, and
// schedules the next completion event.
//
// The result is bit-for-bit the per-flow filling loop's: members of a
// class gain the same increment and freeze in the same round, a pool's
// users are counted with multiplicity, and each member still charges
// its pools with its own subtraction (every subtraction in a round is
// the same increment, so their order cannot change the rounding). The
// minimum over pools and classes does not depend on order either.
func (s *System) reallocate() {
	// Complete flows that have drained, preserving order of the rest.
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

	// Gather the distinct pools the live classes drain.
	resources := s.resources[:0]
	for _, c := range s.classes {
		c.rate = 0
		c.frozen = false
		for _, r := range c.res {
			if !r.seen {
				r.seen = true
				r.remCap = r.capacity
				r.users = 0
				resources = append(resources, r)
			}
			r.users += c.n
		}
	}
	s.resources = resources

	// Progressive filling: raise all unfrozen classes' rates together
	// until each hits its cap or saturates one of its pools.
	unfrozen := len(s.classes)
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, r := range resources {
			if r.users > 0 {
				if v := r.remCap / float64(r.users); v < inc {
					inc = v
				}
			}
		}
		for _, c := range s.classes {
			if !c.frozen {
				if v := c.cap - c.rate; v < inc {
					inc = v
				}
			}
		}
		if inc < 0 {
			inc = 0
		}
		for _, c := range s.classes {
			if c.frozen {
				continue
			}
			c.rate += inc
			for i := 0; i < c.n; i++ {
				for _, r := range c.res {
					r.remCap -= inc
				}
			}
		}
		progressed := false
		for _, c := range s.classes {
			if c.frozen {
				continue
			}
			saturated := c.rate >= c.cap-1e-9*c.cap
			if !saturated {
				for _, r := range c.res {
					if r.remCap <= 1e-9*r.capacity {
						saturated = true
						break
					}
				}
			}
			if saturated {
				c.frozen = true
				unfrozen--
				progressed = true
				for _, r := range c.res {
					r.users -= c.n
				}
			}
		}
		if !progressed {
			panic("memsim: progressive filling failed to converge")
		}
	}
	for _, r := range resources {
		r.seen = false
	}

	// Schedule the next completion.
	next := math.Inf(1)
	for _, f := range s.flows {
		f.rate = f.class.rate
		if f.rate <= 0 {
			panic(fmt.Sprintf("memsim: flow starved (rate 0, %g bytes left)", f.remaining))
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	s.completion = s.e.After(next, s.onCompletion)
}

// finish marks f complete and releases its waiters.
func (s *System) finish(f *Flow) {
	s.leave(f.class)
	f.done = true
	f.rate = 0
	f.remaining = 0
	f.finished = s.e.Now()
	for _, w := range f.waiters {
		w.Resume()
	}
	f.waiters = nil
	if f.onDone != nil {
		cb := f.onDone
		s.e.Schedule(s.e.Now(), cb)
	}
}

// Transfer moves bytes from src to dst as a blocking memcpy-style flow,
// consuming src read bandwidth and dst write bandwidth simultaneously
// (plus both nodes' fixed latency once up front). It returns the elapsed
// virtual time. This is the data-movement primitive behind the paper's
// numa_alloc_onnode + memcpy + numa_free migration routine.
func (s *System) Transfer(p *sim.Proc, bytes float64, src, dst *Node, rateCap float64) sim.Time {
	t0 := s.e.Now()
	if lat := src.Latency + dst.Latency; lat > 0 {
		p.Sleep(lat)
	}
	f := s.StartFlow(FlowSpec{
		Bytes:   bytes,
		Demands: []Demand{{Node: src, Access: Read}, {Node: dst, Access: Write}},
		RateCap: rateCap,
	})
	f.Wait(p)
	return s.e.Now() - t0
}

// ReadStream streams bytes from node as a blocking flow consuming read
// bandwidth only (a load-dominated kernel).
func (s *System) ReadStream(p *sim.Proc, bytes float64, node *Node, rateCap float64) sim.Time {
	t0 := s.e.Now()
	f := s.StartFlow(FlowSpec{
		Bytes:   bytes,
		Demands: []Demand{{Node: node, Access: Read}},
		RateCap: rateCap,
	})
	f.Wait(p)
	return s.e.Now() - t0
}
