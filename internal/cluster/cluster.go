// Package cluster extends the node-level runtime to multi-node
// settings — the last future-work item in the paper's conclusion ("We
// will also perform comparisons ... in multi-node cluster settings").
//
// A Cluster runs several independent node instances (each with its own
// engine, heterogeneous memory system, Charm-like runtime and OOC
// manager) connected by a network fabric. Each node's NIC reuses the
// memsim bandwidth allocator: its read side is the node's egress and
// its write side its ingress, so concurrent messages contend for NIC
// bandwidth exactly like memory flows contend for a bus.
//
// The nodes run as a conservative parallel DES in synchronized windows:
//
//	window k executes, on every node, all events with t < horizon_k,
//	where horizon_k = (earliest pending event across nodes) + L
//
// and L is the inter-node message latency — the classic conservative
// lookahead (Chandy/Misra/Bryant): a message created by an event at
// t1 >= T_min cannot be delivered before t1 + L >= T_min + L =
// horizon_k, so no event inside the window can affect another node
// within the same window. Engines share no state; cross-node messages
// buffer in per-node outboxes and are merged at the barrier in a
// deterministic (deliver-time, source, sequence) order. Serial and
// goroutine-parallel execution of the windows are therefore
// byte-identical — hmlint's determinism analyzer and the
// serial-vs-parallel tests in parallel_test.go guard this.
//
// Because no flow can span two engines, the fabric is store-and-forward:
// a message serialises through its source NIC (egress flows on the
// source engine contend), travels for L, then serialises through the
// destination NIC (ingress flows on the destination engine contend).
// Uncontended cost is 2*bytes/BW + L.
package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/hetmem/hetmem/internal/charm"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/memsim"
	"github.com/hetmem/hetmem/internal/projections"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

// NetworkSpec describes the interconnect.
type NetworkSpec struct {
	// Latency is the one-way message latency (seconds). It is also
	// the conservative lookahead, so it must be positive: a zero
	// lookahead admits no window.
	Latency sim.Time
	// NICBandwidth is each node's injection/ejection bandwidth in
	// bytes/second (e.g. ~12.5e9 for 100 Gb/s).
	NICBandwidth float64
}

// DefaultNetwork returns a 100 Gb/s, 1.5 µs fabric, typical of the
// Omni-Path interconnect on Stampede 2.0's KNL partition.
func DefaultNetwork() NetworkSpec {
	return NetworkSpec{Latency: 1.5e-6, NICBandwidth: 12.5e9}
}

// Validate reports configuration errors.
func (n NetworkSpec) Validate() error {
	if n.Latency <= 0 || n.NICBandwidth <= 0 {
		return fmt.Errorf("cluster: invalid network spec %+v", n)
	}
	return nil
}

// Config sizes a cluster.
type Config struct {
	Nodes  int
	Spec   topology.MachineSpec
	NumPEs int // per node
	Opts   core.Options
	Params charm.Params
	Net    NetworkSpec
	Trace  bool
	Seed   int64
	// Parallel runs each window's node engines on goroutines (one
	// per node) instead of one after another; both produce
	// byte-identical results.
	Parallel bool
}

// Cluster is a set of nodes, each on its own engine, plus the fabric.
type Cluster struct {
	Nodes []*Node

	net      NetworkSpec
	parallel bool

	// Stats aggregates fabric traffic and coordinator activity; valid
	// after Run (per-node counters are summed at the end).
	Stats struct {
		Messages int64
		Bytes    float64
		Windows  int64
	}
}

// Node is one machine of the cluster: a full node stack on its own
// engine plus a single-node memsim system acting as its NIC.
type Node struct {
	ID     int
	Eng    *sim.Engine
	Mach   *topology.Machine
	RT     *charm.Runtime
	MG     *core.Manager
	Tracer *projections.Tracer

	nic     *memsim.System
	nicNode *memsim.Node

	outbox []pmsg
	msgSeq int64

	messages int64
	bytes    float64
}

// pmsg is a cross-node message parked in its source node's outbox
// between egress completion and the next barrier.
type pmsg struct {
	src, dst  int
	bytes     float64
	deliverAt sim.Time
	seq       int64 // per-source sequence, for deterministic merge order
	deliver   func()
}

// New builds a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	params := cfg.Params
	if params == (charm.Params{}) {
		params = charm.DefaultParams()
	}
	c := &Cluster{net: cfg.Net, parallel: cfg.Parallel}
	for i := 0; i < cfg.Nodes; i++ {
		eng := sim.NewEngine(seed + int64(i))
		mach, err := cfg.Spec.Build(eng)
		if err != nil {
			return nil, err
		}
		var tr *projections.Tracer
		if cfg.Trace {
			tr = projections.NewTracer(eng, cfg.NumPEs)
		}
		rt := charm.NewRuntime(mach, cfg.NumPEs, params, tr)
		mg := core.NewManager(rt, cfg.Opts)
		nic := memsim.NewSystem(eng, []memsim.NodeSpec{{
			Name:    fmt.Sprintf("nic%d", i),
			Kind:    memsim.DDR,
			Cap:     1,
			ReadBW:  cfg.Net.NICBandwidth,
			WriteBW: cfg.Net.NICBandwidth,
			TotalBW: 2 * cfg.Net.NICBandwidth, // full duplex
		}})
		c.Nodes = append(c.Nodes, &Node{
			ID: i, Eng: eng, Mach: mach, RT: rt, MG: mg, Tracer: tr,
			//hmlint:ignore tierchain the NIC system is a single-node bandwidth model built three lines up, not a tier chain; node 0 is its only node by construction
			nic: nic, nicNode: nic.Node(0),
		})
	}
	return c, nil
}

// Close reaps all simulation processes on every node engine.
func (c *Cluster) Close() {
	for _, nd := range c.Nodes {
		nd.Eng.Close()
	}
}

// Send transfers bytes from node src to node dst and runs deliver on
// dst's engine when the message lands. Must be called from src's
// engine context (an event callback or process on that engine). The
// message serialises through src's egress NIC, waits in src's outbox
// until the window barrier, then serialises through dst's ingress NIC
// starting at egress-end + latency.
func (c *Cluster) Send(src, dst int, bytes float64, deliver func()) {
	sn := c.Nodes[src]
	if src == dst {
		// Loopback skips the NIC.
		sn.Eng.Schedule(sn.Eng.Now(), deliver)
		return
	}
	sn.messages++
	sn.bytes += bytes
	lat := c.net.Latency
	sn.nic.StartFlow(memsim.FlowSpec{
		Bytes:   bytes,
		Demands: []memsim.Demand{{Node: sn.nicNode, Access: memsim.Read}},
		OnDone: func() {
			sn.outbox = append(sn.outbox, pmsg{
				src: src, dst: dst, bytes: bytes,
				deliverAt: sn.Eng.Now() + lat,
				seq:       sn.msgSeq,
				deliver:   deliver,
			})
			sn.msgSeq++
		},
	})
}

// ingress schedules the arrival half of m on its destination engine:
// an ingress flow starting at deliverAt whose completion runs the
// deliver callback.
func (c *Cluster) ingress(m pmsg) {
	dn := c.Nodes[m.dst]
	deliver := m.deliver
	bytes := m.bytes
	dn.Eng.Schedule(m.deliverAt, func() {
		dn.nic.StartFlow(memsim.FlowSpec{
			Bytes:   bytes,
			Demands: []memsim.Demand{{Node: dn.nicNode, Access: memsim.Write}},
			OnDone:  deliver,
		})
	})
}

// Run executes all node engines to global quiescence using
// conservative windows. It returns the largest node-local virtual time
// reached. Safe to call once per cluster; node processes left parked
// afterwards are reaped by Close.
func (c *Cluster) Run() sim.Time {
	var wg sync.WaitGroup
	var batch []pmsg
	for {
		tmin := sim.Infinity
		for _, nd := range c.Nodes {
			if t, ok := nd.Eng.PeekTime(); ok && t < tmin {
				tmin = t
			}
		}
		if tmin == sim.Infinity {
			break
		}
		horizon := tmin + c.net.Latency
		if c.parallel && len(c.Nodes) > 1 {
			for _, nd := range c.Nodes {
				nd := nd
				wg.Add(1)
				go func() {
					defer wg.Done()
					nd.Eng.RunBefore(horizon)
				}()
			}
			wg.Wait()
		} else {
			for _, nd := range c.Nodes {
				nd.Eng.RunBefore(horizon)
			}
		}
		c.Stats.Windows++

		// Barrier: merge every node's outbox in deterministic order
		// and materialise the arrivals on the destination engines.
		// deliverAt >= horizon for every message (egress completed at
		// t1 >= tmin, so t1+L >= horizon > every engine's clock) —
		// scheduling can never be in an engine's past.
		batch = batch[:0]
		for _, nd := range c.Nodes {
			batch = append(batch, nd.outbox...)
			nd.outbox = nd.outbox[:0]
		}
		sort.Slice(batch, func(a, b int) bool {
			if batch[a].deliverAt != batch[b].deliverAt {
				return batch[a].deliverAt < batch[b].deliverAt
			}
			if batch[a].src != batch[b].src {
				return batch[a].src < batch[b].src
			}
			return batch[a].seq < batch[b].seq
		})
		for _, m := range batch {
			c.ingress(m)
		}
	}
	var end sim.Time
	for _, nd := range c.Nodes {
		c.Stats.Messages += nd.messages
		c.Stats.Bytes += nd.bytes
		nd.messages, nd.bytes = 0, 0
		if t := nd.Eng.Now(); t > end {
			end = t
		}
	}
	return end
}

// Signature renders everything observable about a finished run into a
// string: per-node scheduler and manager counters, final clocks and
// engine event counts, plus the cluster-level result. Two runs are
// byte-identical iff their signatures are equal — the determinism tests
// and X12's serial-vs-parallel check both compare these.
func (c *Cluster) Signature(res *StencilResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "result=%+v\nstats=%+v\n", *res, c.Stats)
	for _, nd := range c.Nodes {
		st := nd.Eng.EventStats()
		fmt.Fprintf(&b, "node%d now=%.12e fired=%d sched=%d tasks=%d msgs=%d fetches=%d evictions=%d bytesF=%d bytesE=%d\n",
			nd.ID, nd.Eng.Now(), st.Fired, st.Scheduled,
			nd.RT.Stats.TasksExecuted, nd.RT.Stats.MessagesSent,
			nd.MG.Stats.Fetches, nd.MG.Stats.Evictions,
			nd.MG.Stats.BytesFetched, nd.MG.Stats.BytesEvicted)
	}
	return b.String()
}
