package trace_test

import (
	"testing"

	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/serve"
	"github.com/hetmem/hetmem/internal/trace"
)

// hetmemdCapture records one traced, adaptive stencil session through
// the multi-tenant scheduler, so the capture carries lane grants and
// controller decisions.
func hetmemdCapture(t *testing.T) *trace.Capture {
	t.Helper()
	s, err := serve.NewScheduler(serve.Config{Spec: exp.Small.Machine(), NumPEs: exp.Small.NumPEs(), Fair: true})
	if err != nil {
		t.Fatal(err)
	}
	const mb = int64(1) << 20
	sess, err := s.Submit(serve.WorkloadSpec{Tenant: "acme", Kernel: "stencil",
		Bytes: 512 * mb, Reduced: 128 * mb, Footprint: 192 * mb, Iterations: 2, Sweeps: 4,
		Adapt: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	c := sess.TraceCapture()
	if c == nil {
		t.Fatal("traced session has no capture")
	}
	return c
}

// TestExportChromeRecordedCaptures byte-compares the streaming exporter
// with the reflective oracle on recorded captures the X11 sample does
// not cover: a three-tier run (evictions with a destination tier) and
// a hetmemd session (lane grants, adapt decisions).
func TestExportChromeRecordedCaptures(t *testing.T) {
	has := func(c *trace.Capture, match func(trace.Event) bool) bool {
		for _, e := range c.Events {
			if match(e) {
				return true
			}
		}
		return false
	}
	tiered := runTieredShift(t)
	if !has(tiered, func(e trace.Event) bool { ev, ok := e.(*trace.Evict); return ok && ev.Dst != "" }) {
		t.Fatal("tiered capture has no eviction to a lower tier")
	}
	trace.ExportChromeMatches(t, "tiered shift", tiered)

	sess := hetmemdCapture(t)
	if !has(sess, func(e trace.Event) bool { _, ok := e.(*trace.LaneAssign); return ok }) ||
		!has(sess, func(e trace.Event) bool { _, ok := e.(*trace.Adapt); return ok }) {
		t.Fatal("hetmemd capture lacks lane grants or adapt decisions")
	}
	trace.ExportChromeMatches(t, "hetmemd session", sess)
}
