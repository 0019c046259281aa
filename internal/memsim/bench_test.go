package memsim

import (
	"testing"

	"github.com/hetmem/hetmem/internal/sim"
)

// fig8Flows starts the flow set a full-scale Fig 8 run holds at its
// busiest: per-core-capped kernel streams on HBM (reads, plus the
// write-back of read-write blocks) and capped DDR->HBM prefetch
// copies — 53 flows in three classes over five bandwidth pools, at the
// KNL preset's bandwidths.
func fig8Flows(e *sim.Engine) *System {
	s := NewSystem(e, []NodeSpec{
		{Name: "DDR4", Kind: DDR, Cap: 96 * gb, ReadBW: 95 * gb, WriteBW: 80 * gb, TotalBW: 90 * gb},
		{Name: "MCDRAM", Kind: HBM, Cap: 16 * gb, ReadBW: 450 * gb, WriteBW: 385 * gb, TotalBW: 465 * gb},
	})
	ddr, hbm := s.Node(0), s.Node(1)
	start := func(n int, bytes, rateCap float64, demands ...Demand) {
		for i := 0; i < n; i++ {
			s.StartFlow(FlowSpec{Bytes: bytes, Demands: demands, RateCap: rateCap})
		}
	}
	start(40, 64*gb, 11*gb, Demand{Node: hbm, Access: Read})
	start(8, 64*gb, 11*gb, Demand{Node: hbm, Access: Write})
	start(5, 64*gb, 8*gb, Demand{Node: ddr, Access: Read}, Demand{Node: hbm, Access: Write})
	return s
}

// BenchmarkReallocate measures one max-min rate recomputation over the
// Fig 8 flow set (the sweep workload averages 26 live flows).
func BenchmarkReallocate(b *testing.B) {
	s := fig8Flows(sim.NewEngine(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.reallocate()
	}
}

// Recomputing rates over a fixed flow set allocates nothing: the pool
// list and the completion callback are kept on the System, and the
// completion event comes from the engine's free list.
func TestReallocateAllocatesNothing(t *testing.T) {
	s := fig8Flows(sim.NewEngine(1))
	if n := len(s.classes); n != 3 {
		t.Fatalf("Fig 8 flow set has %d classes, want 3", n)
	}
	if allocs := testing.AllocsPerRun(100, s.reallocate); allocs != 0 {
		t.Fatalf("reallocate allocates %v per call, want 0", allocs)
	}
}
