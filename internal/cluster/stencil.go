package cluster

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
)

// StencilConfig sizes a distributed Stencil3D: every node runs the
// per-node configuration on its own subdomain and exchanges boundary
// halos with its ±1 neighbours (1-D node decomposition) at each
// iteration boundary.
type StencilConfig struct {
	PerNode kernels.StencilConfig
	Nodes   int
	// HaloBytes is the per-direction boundary surface exchanged per
	// iteration; 0 derives it as one chare block per face.
	HaloBytes int64
}

// Validate reports configuration errors.
func (c StencilConfig) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: need nodes")
	}
	if c.HaloBytes < 0 {
		return fmt.Errorf("cluster: negative halo")
	}
	return c.PerNode.Validate()
}

// halo returns the effective per-direction halo volume.
func (c StencilConfig) halo() int64 {
	if c.HaloBytes > 0 {
		return c.HaloBytes
	}
	return c.PerNode.ChareBytes()
}

// StencilResult is one distributed run's outcome.
type StencilResult struct {
	Nodes int
	// Total is the wall time of all iterations (global virtual time).
	Total sim.Time
	// AvgIter is the mean iteration time across the whole cluster.
	AvgIter sim.Time
	// NetBytes is the total halo traffic.
	NetBytes float64
	// NetMessages is the halo message count.
	NetMessages int64
}

// nodeState tracks one node's halo synchronisation for one iteration
// boundary.
type nodeState struct {
	app      *kernels.StencilApp
	resume   func()
	haloSeen int
	haloWant int
}

// RunStencil runs the distributed stencil to completion and returns
// cluster-level timings. All nodes execute the same per-node working
// set (weak scaling). Node i's state is touched solely by events on
// node i's engine, which is what makes the parallel windows safe.
func RunStencil(c *Cluster, cfg StencilConfig) (*StencilResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(c.Nodes) != cfg.Nodes {
		return nil, fmt.Errorf("cluster: config wants %d nodes, cluster has %d", cfg.Nodes, len(c.Nodes))
	}
	states := make([]*nodeState, cfg.Nodes)

	// tryResume continues node i's next iteration once its local
	// barrier has fired AND both halos arrived.
	tryResume := func(i int) {
		st := states[i]
		if st.resume != nil && st.haloSeen >= st.haloWant {
			r := st.resume
			st.resume = nil
			st.haloSeen -= st.haloWant
			r()
		}
	}

	for i := 0; i < cfg.Nodes; i++ {
		i := i
		app, err := kernels.NewStencil(c.Nodes[i].MG, cfg.PerNode)
		if err != nil {
			return nil, err
		}
		st := &nodeState{app: app}
		// Neighbours under the 1-D node decomposition.
		var neighbours []int
		if i > 0 {
			neighbours = append(neighbours, i-1)
		}
		if i < cfg.Nodes-1 {
			neighbours = append(neighbours, i+1)
		}
		st.haloWant = len(neighbours)
		states[i] = st
		app.OnIteration = func(iter int, resume func()) {
			st.resume = resume
			// "send updated data to neighbors" across the fabric.
			for _, nb := range neighbours {
				nb := nb
				c.Send(i, nb, float64(cfg.halo()), func() {
					states[nb].haloSeen++
					tryResume(nb)
				})
			}
			tryResume(i)
		}
	}

	for _, st := range states {
		st.app.Start()
	}
	c.Run()
	for i, st := range states {
		if !st.app.Done() {
			return nil, fmt.Errorf("cluster: node %d deadlocked after %d/%d iterations",
				i, len(st.app.IterEnd), cfg.PerNode.Iterations)
		}
	}
	var end sim.Time
	for _, st := range states {
		if t := st.app.IterEnd[len(st.app.IterEnd)-1]; t > end {
			end = t
		}
	}
	return &StencilResult{
		Nodes:       cfg.Nodes,
		Total:       end,
		AvgIter:     end / sim.Time(cfg.PerNode.Iterations),
		NetBytes:    c.Stats.Bytes,
		NetMessages: c.Stats.Messages,
	}, nil
}
