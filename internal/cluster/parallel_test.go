package cluster

import (
	"testing"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/sim"
)

// runParallelStencil builds a fresh cluster and runs the
// distributed stencil, returning the run signature.
func runParallelStencil(t *testing.T, nodes int, mode core.Mode, parallel bool) string {
	t.Helper()
	cfg := smallClusterCfg(nodes, mode)
	cfg.Parallel = parallel
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	res, err := RunStencil(c, StencilConfig{PerNode: perNodeStencil(), Nodes: nodes})
	if err != nil {
		t.Fatalf("RunStencil(%d nodes, parallel=%v): %v", nodes, parallel, err)
	}
	return c.Signature(res)
}

// TestParallelMatchesSerial is the acceptance gate for the conservative
// engine: goroutine-parallel window execution must be byte-identical to
// serial execution of the same windows, across node counts and modes.
func TestParallelMatchesSerial(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 8} {
		for _, mode := range []core.Mode{core.Baseline, core.MultiIO} {
			serial := runParallelStencil(t, nodes, mode, false)
			parallel := runParallelStencil(t, nodes, mode, true)
			if serial != parallel {
				t.Errorf("%d nodes, %v: serial and parallel runs diverge\n--- serial\n%s--- parallel\n%s",
					nodes, mode, serial, parallel)
			}
		}
	}
}

// TestParallelRepeatStable runs the goroutine-parallel path repeatedly;
// under -race this doubles as the data-race check on the window
// barriers and outbox handling.
func TestParallelRepeatStable(t *testing.T) {
	first := runParallelStencil(t, 4, core.MultiIO, true)
	for i := 0; i < 2; i++ {
		if again := runParallelStencil(t, 4, core.MultiIO, true); again != first {
			t.Fatalf("parallel run %d diverged\n--- first\n%s--- again\n%s", i+2, first, again)
		}
	}
}

// TestParallelSendTiming pins the store-and-forward fabric model: an
// uncontended message costs egress serialisation + latency + ingress
// serialisation.
func TestParallelSendTiming(t *testing.T) {
	cfg := smallClusterCfg(2, core.Baseline)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const bytes = 12.5e9 // one second of egress at the default NIC
	var arrived sim.Time
	c.Nodes[0].Eng.Schedule(0, func() {
		c.Send(0, 1, bytes, func() {
			arrived = c.Nodes[1].Eng.Now()
		})
	})
	c.Run()
	want := 1.0 + cfg.Net.Latency + 1.0 // egress + latency + ingress
	if diff := arrived - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("message arrived at %v, want ~%v", arrived, want)
	}
	if c.Stats.Messages != 1 || c.Stats.Bytes != bytes {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// TestParallelLoopback: same-node sends skip the NIC and deliver at the
// current time on the local engine.
func TestParallelLoopback(t *testing.T) {
	cfg := smallClusterCfg(1, core.Baseline)
	cfg.Parallel = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var at sim.Time = -1
	c.Nodes[0].Eng.Schedule(2.5, func() {
		c.Send(0, 0, 1e9, func() { at = c.Nodes[0].Eng.Now() })
	})
	c.Run()
	if at != 2.5 {
		t.Fatalf("loopback delivered at %v, want 2.5", at)
	}
	if c.Stats.Messages != 0 {
		t.Fatalf("loopback counted as fabric traffic: %+v", c.Stats)
	}
}

// TestParallelNeedsPositiveLatency: zero lookahead admits no window, so
// New rejects it in either execution mode.
func TestParallelNeedsPositiveLatency(t *testing.T) {
	cfg := smallClusterCfg(2, core.Baseline)
	cfg.Net.Latency = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero-latency cluster accepted")
	}
}
