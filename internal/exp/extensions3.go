package exp

import (
	"fmt"

	"github.com/hetmem/hetmem/internal/cluster"
	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// --- X8: multi-node cluster (the paper's last future-work item) ---

// ClusterRow is one node-count point of the weak-scaling sweep.
type ClusterRow struct {
	Nodes      int
	NaiveIter  sim.Time
	MultiIter  sim.Time
	Speedup    float64
	HaloBytes  float64
	WeakSlowdn float64 // MultiIO iter time vs 1 node
}

// ClusterResult is experiment X8: the distributed Stencil3D under weak
// scaling ("we will also perform comparisons ... in multi-node cluster
// settings").
type ClusterResult struct {
	Scale Scale
	Rows  []ClusterRow
}

// RunCluster sweeps node counts with a constant per-node working set.
// Windows run serially: the table is virtual time, identical either way.
func RunCluster(s Scale) (*ClusterResult, error) {
	res := &ClusterResult{Scale: s}
	perNode := s.StencilConfig(s.StencilReducedSizes()[1])
	perNode.Iterations = 3
	counts := []int{1, 2, 4, 8}
	if s == Full {
		counts = []int{1, 2, 4}
	}
	run := func(nodes int, mode core.Mode) (*cluster.StencilResult, error) {
		c, err := cluster.New(cluster.Config{
			Nodes:  nodes,
			Spec:   s.Machine(),
			NumPEs: s.NumPEs(),
			Opts:   s.options(mode),
			Net:    cluster.DefaultNetwork(),
		})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		res, err := cluster.RunStencil(c, cluster.StencilConfig{PerNode: perNode, Nodes: nodes})
		if err != nil {
			return nil, err
		}
		for i, nd := range c.Nodes {
			nd.MG.Auditor().CheckQuiescent()
			if aerr := nd.MG.Auditor().Err(); aerr != nil {
				return nil, fmt.Errorf("node %d: %w", i, aerr)
			}
		}
		return res, nil
	}
	var base sim.Time
	for _, n := range counts {
		naive, err := run(n, core.Baseline)
		if err != nil {
			return nil, fmt.Errorf("exp: cluster naive %d nodes: %w", n, err)
		}
		multi, err := run(n, core.MultiIO)
		if err != nil {
			return nil, fmt.Errorf("exp: cluster multi %d nodes: %w", n, err)
		}
		if n == counts[0] {
			base = multi.AvgIter
		}
		res.Rows = append(res.Rows, ClusterRow{
			Nodes:      n,
			NaiveIter:  naive.AvgIter,
			MultiIter:  multi.AvgIter,
			Speedup:    float64(naive.AvgIter) / float64(multi.AvgIter),
			HaloBytes:  multi.NetBytes,
			WeakSlowdn: float64(multi.AvgIter) / float64(base),
		})
	}
	return res, nil
}

// Table renders X8.
func (r *ClusterResult) Table() Table {
	t := Table{
		Title: "X8: multi-node weak scaling (distributed Stencil3D, halos over 100Gb/s fabric)",
		Header: []string{"nodes", "naive iter (s)", "MultiIO iter (s)",
			"speedup", "weak-scaling overhead", "halo GB"},
		Notes: []string{
			"paper conclusion: comparisons 'in multi-node cluster settings';",
			"per-node working set constant, MultiIO advantage survives distribution",
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(row.Nodes),
			f3(row.NaiveIter), f3(row.MultiIter),
			f2(row.Speedup), f2(row.WeakSlowdn),
			f2(row.HaloBytes / float64(GB)),
		})
	}
	return t
}
