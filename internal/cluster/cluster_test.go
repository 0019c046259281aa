package cluster

import (
	"testing"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/sim"
	"github.com/hetmem/hetmem/internal/topology"
)

const gb = topology.GB

// smallNode is the 1/8-slice KNL used by the node-level tests.
func smallNode() topology.MachineSpec {
	s := topology.KNL7250()
	s.Cores = 8
	s.TilesL2 = 4
	s.HBMCap = 2 * gb
	s.DDRCap = 12 * gb
	s.HBMReadBW /= 8
	s.HBMWriteBW /= 8
	s.HBMTotalBW /= 8
	s.DDRReadBW /= 8
	s.DDRWriteBW /= 8
	s.DDRTotalBW /= 8
	s.MemcpyBW /= 8
	return s
}

func smallClusterCfg(nodes int, mode core.Mode) Config {
	opts := core.DefaultOptions(mode)
	opts.HBMReserve = gb / 8
	return Config{
		Nodes:  nodes,
		Spec:   smallNode(),
		NumPEs: 8,
		Opts:   opts,
		Net:    DefaultNetwork(),
	}
}

func perNodeStencil() kernels.StencilConfig {
	return kernels.StencilConfig{
		TotalBytes:    4 * gb,
		ReducedBytes:  gb / 2,
		Iterations:    3,
		Sweeps:        10,
		NumPEs:        8,
		FlopsPerByte:  1,
		GhostFraction: 0.05,
	}
}

func TestNetworkValidation(t *testing.T) {
	if err := (NetworkSpec{Latency: -1, NICBandwidth: 1}).Validate(); err == nil {
		t.Fatal("negative latency accepted")
	}
	if err := (NetworkSpec{Latency: 0, NICBandwidth: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if err := DefaultNetwork().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0, Spec: smallNode(), NumPEs: 1, Net: DefaultNetwork()}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad := smallNode()
	bad.Cores = 0
	if _, err := New(Config{Nodes: 1, Spec: bad, NumPEs: 1, Net: DefaultNetwork()}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestNICContention(t *testing.T) {
	// Two concurrent messages out of node 0 share its egress NIC.
	cfg := smallClusterCfg(3, core.Baseline)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var t1, t2 sim.Time
	c.Nodes[0].Eng.Schedule(0, func() {
		c.Send(0, 1, 12.5e9, func() { t1 = c.Nodes[1].Eng.Now() })
		c.Send(0, 2, 12.5e9, func() { t2 = c.Nodes[2].Eng.Now() })
	})
	c.Run()
	// Each 1s-alone egress takes 2s sharing the 12.5 GB/s NIC; the
	// ingress legs land on different nodes and take 1s each.
	want := 2.0 + cfg.Net.Latency + 1.0
	for _, got := range []sim.Time{t1, t2} {
		if diff := got - want; diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("egress contention not modelled: arrivals %v %v, want ~%v", t1, t2, want)
		}
	}
}

func TestDistributedStencilRuns(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		c, err := New(smallClusterCfg(nodes, core.MultiIO))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunStencil(c, StencilConfig{PerNode: perNodeStencil(), Nodes: nodes})
		if err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
		if res.Total <= 0 || res.AvgIter <= 0 {
			t.Fatalf("%d nodes: bad timings %+v", nodes, res)
		}
		if nodes > 1 && res.NetMessages == 0 {
			t.Fatalf("%d nodes: no halo traffic", nodes)
		}
		if nodes == 1 && res.NetMessages != 0 {
			t.Fatal("single node should not use the fabric")
		}
		c.Close()
	}
}

func TestWeakScaling(t *testing.T) {
	// Weak scaling: per-node work constant, so iteration time should
	// grow only mildly with node count (halo exchange overhead).
	times := map[int]sim.Time{}
	for _, nodes := range []int{1, 4} {
		c, err := New(smallClusterCfg(nodes, core.MultiIO))
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunStencil(c, StencilConfig{PerNode: perNodeStencil(), Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		times[nodes] = res.AvgIter
		c.Close()
	}
	if over := float64(times[4]) / float64(times[1]); over > 1.25 {
		t.Fatalf("weak-scaling overhead %.2fx at 4 nodes, want <= 1.25x", over)
	}
}

func TestDistributedStrategiesOrdering(t *testing.T) {
	// The node-level result survives distribution: MultiIO beats
	// Naive on every node count.
	run := func(nodes int, mode core.Mode) sim.Time {
		c, err := New(smallClusterCfg(nodes, mode))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := RunStencil(c, StencilConfig{PerNode: perNodeStencil(), Nodes: nodes})
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	for _, nodes := range []int{2, 4} {
		naive := run(nodes, core.Baseline)
		multi := run(nodes, core.MultiIO)
		if multi >= naive {
			t.Fatalf("%d nodes: MultiIO (%v) not faster than Naive (%v)", nodes, multi, naive)
		}
	}
}

func TestDistributedDeterminism(t *testing.T) {
	run := func() sim.Time {
		c, err := New(smallClusterCfg(2, core.MultiIO))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		res, err := RunStencil(c, StencilConfig{PerNode: perNodeStencil(), Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic cluster run: %v vs %v", a, b)
	}
}

func TestStencilConfigValidation(t *testing.T) {
	if err := (StencilConfig{Nodes: 0, PerNode: perNodeStencil()}).Validate(); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if err := (StencilConfig{Nodes: 1, HaloBytes: -1, PerNode: perNodeStencil()}).Validate(); err == nil {
		t.Fatal("negative halo accepted")
	}
	cfg := StencilConfig{Nodes: 2, PerNode: perNodeStencil()}
	if cfg.halo() != perNodeStencil().ChareBytes() {
		t.Fatal("derived halo wrong")
	}
	cfg.HaloBytes = 42
	if cfg.halo() != 42 {
		t.Fatal("explicit halo ignored")
	}
}

func TestRunStencilNodeMismatch(t *testing.T) {
	c, err := New(smallClusterCfg(2, core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := RunStencil(c, StencilConfig{PerNode: perNodeStencil(), Nodes: 3}); err == nil {
		t.Fatal("node mismatch accepted")
	}
}
