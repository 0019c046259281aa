package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"testing"
)

// The reflective Chrome exporter ExportChrome replaced, kept verbatim as
// the test oracle: the streaming writer must produce its bytes exactly.

// refChromeEvent is one entry of the Chrome trace_event format
// (catapult's "JSON Array Format"): complete spans (ph "X"), instants
// (ph "i") and thread-name metadata (ph "M"). Timestamps are
// microseconds of virtual time.
type refChromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur,omitempty"`
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args interface{} `json:"args,omitempty"`
}

type refChromeThreadName struct {
	Name string `json:"name"`
}

type refChromeSpanArgs struct {
	ID      int64  `json:"id,omitempty"`
	Block   string `json:"block,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
	Src     string `json:"src,omitempty"`
	Refetch bool   `json:"refetch,omitempty"`
	Forced  bool   `json:"forced,omitempty"`
	Policy  string `json:"policy,omitempty"`
	Task    string `json:"task,omitempty"`
	Action  string `json:"action,omitempty"`
}

// refChromeLaneArgs renders a LaneAssign event as a stacked counter:
// lanes granted to this session vs the rest of the pool, so tenant
// contention reads directly off the counter track height split.
type refChromeLaneArgs struct {
	Granted int `json:"granted"`
	Others  int `json:"others"`
}

type refChromeFile struct {
	TraceEvents     []refChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// exportChromeReflect converts a capture to Chrome trace_event JSON: one track
// (thread) per PE for entry-method execution, one per IO lane for
// fetch/evict spans, instants for pressure, retune and adapt decisions.
// Open the output in any trace viewer (chrome://tracing, Perfetto).
func exportChromeReflect(c *Capture, w io.Writer) error {
	numPEs := 0
	if m := c.Meta(); m != nil {
		numPEs = m.NumPEs
	}
	var evs []refChromeEvent
	taskName := map[int64]string{}
	runOpen := map[int64]float64{}
	lanes := map[int]bool{}

	span := func(name string, ts, dur float64, tid int, args interface{}) {
		evs = append(evs, refChromeEvent{Name: name, Ph: "X", Ts: ts, Dur: dur, TID: tid, Args: args})
	}
	for _, e := range c.Events {
		t := float64(e.header().T) * usec
		switch ev := e.(type) {
		case *Send:
			taskName[ev.ID] = fmt.Sprintf("%s[%d].%s", ev.Arr, ev.Idx, ev.Entry)
		case *RunStart:
			runOpen[ev.ID] = t
			lanes[ev.PE] = true
		case *RunEnd:
			if start, ok := runOpen[ev.ID]; ok {
				span(taskName[ev.ID], start, t-start, ev.PE, &refChromeSpanArgs{ID: ev.ID})
				delete(runOpen, ev.ID)
			}
		case *FetchEnd:
			lanes[ev.Lane] = true
			span("fetch "+ev.Block, t-float64(ev.Dur)*usec, float64(ev.Dur)*usec, ev.Lane,
				&refChromeSpanArgs{Block: ev.Block, Bytes: ev.Bytes, Src: ev.Src, Refetch: ev.Refetch})
		case *Evict:
			lanes[ev.Lane] = true
			span("evict "+ev.Block, t-float64(ev.Dur)*usec, float64(ev.Dur)*usec, ev.Lane,
				&refChromeSpanArgs{Block: ev.Block, Bytes: ev.Bytes, Forced: ev.Forced, Policy: ev.Policy})
		case *Pressure:
			lanes[ev.PE] = true
			evs = append(evs, refChromeEvent{Name: "pressure", Ph: "i", Ts: t, TID: ev.PE, S: "t",
				Args: &refChromeSpanArgs{Task: ev.Task, Bytes: ev.Need}})
		case *LaneAssign:
			evs = append(evs, refChromeEvent{Name: "io lanes", Ph: "C", Ts: t,
				Args: &refChromeLaneArgs{Granted: ev.Lanes, Others: ev.Total - ev.Lanes}})
		case *Retune:
			evs = append(evs, refChromeEvent{Name: "retune " + ev.Knobs.Mode, Ph: "i", Ts: t, S: "g"})
		case *Adapt:
			evs = append(evs, refChromeEvent{Name: "adapt", Ph: "i", Ts: t, S: "g",
				Args: &refChromeSpanArgs{Action: ev.Action}})
		}
	}

	laneIDs := make([]int, 0, len(lanes))
	for lane := range lanes {
		laneIDs = append(laneIDs, lane)
	}
	sort.Ints(laneIDs)
	meta := make([]refChromeEvent, 0, len(laneIDs))
	for _, lane := range laneIDs {
		name := fmt.Sprintf("PE %d", lane)
		if numPEs > 0 && lane >= numPEs {
			name = fmt.Sprintf("IO %d", lane-numPEs)
		}
		meta = append(meta, refChromeEvent{Name: "thread_name", Ph: "M", TID: lane,
			Args: &refChromeThreadName{Name: name}})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(refChromeFile{TraceEvents: append(meta, evs...), DisplayTimeUnit: "ms"})
}

// ExportChromeReflect lets the external test package compare recorded
// captures against the oracle.
var ExportChromeReflect = exportChromeReflect

// ExportChromeMatches fails t unless ExportChrome writes exactly the
// oracle's bytes for c.
func ExportChromeMatches(t *testing.T, name string, c *Capture) {
	t.Helper()
	var got, want bytes.Buffer
	if err := ExportChrome(c, &got); err != nil {
		t.Fatalf("%s: ExportChrome: %v", name, err)
	}
	if err := exportChromeReflect(c, &want); err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s: export differs from the oracle at byte %d of %d/%d:\n got: %s\nwant: %s",
			name, i, len(g), len(w), around(g, i), around(w, i))
	}
}

func around(b []byte, i int) string {
	lo, hi := i-80, i+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(b) {
		hi = len(b)
	}
	return string(b[lo:hi])
}

func TestExportChromeMatchesReflectX11(t *testing.T) {
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ExportChromeMatches(t, "x11-small", c)
}

// chromeFixture is a hand-built capture with every exported kind:
// hetmemd lane grants and adapt decisions, a retune, pressure, a
// three-tier eviction (Dst set), zero-valued args (a task with ID 0,
// a zero-byte fetch), a run-end without its send and one without its
// run-start, and the given block and array names.
func chromeFixture(block, arr string) *Capture {
	c := &Capture{}
	add := func(e Event, t float64) {
		h := e.header()
		h.Seq, h.T = int64(len(c.Events)), t
		c.Events = append(c.Events, e)
	}
	add(&Meta{Version: Version, NumPEs: 2, Seed: 3, Session: "s-1", Tenant: "acme"}, 0)
	add(&HandleDecl{Block: block, Bytes: 64, Node: "DDR4"}, 0)
	add(&Send{ID: 0, Arr: arr, Idx: 4, Entry: "run<1>", PE: 1, From: -1, Prefetch: true,
		Deps: []Dep{{Block: block, Bytes: 64, Mode: "rw"}}}, 0)
	add(&LaneAssign{Window: 0, Lanes: 2, Total: 3, Active: 2}, 0.001)
	add(&FetchStart{Lane: 2, Block: block, Bytes: 64}, 0.001)
	add(&FetchEnd{Lane: 2, Block: block, Bytes: 64, Dur: 0.25, Src: "NVM", Refetch: true}, 0.251)
	add(&FetchEnd{Lane: 3, Block: "", Bytes: 0, Dur: 0, Src: ""}, 0.3)
	add(&Admit{ID: 0, PE: 1, Bytes: 64, Staged: true}, 0.251)
	add(&RunStart{ID: 0, PE: 1}, 0.3)
	add(&Kernel{ID: 0, PE: 1, Flops: 1e9, Scale: 1, Start: 0.3, Dur: 0.1}, 0.4)
	add(&RunEnd{ID: 0, PE: 1}, 0.4)
	add(&RunEnd{ID: 5, PE: 0}, 0.41)
	add(&RunStart{ID: 6, PE: 0}, 0.42)
	add(&RunEnd{ID: 6, PE: 0}, 0.42)
	add(&TaskDone{ID: 0}, 0.4)
	add(&Pressure{PE: 0, Task: arr + "[4].run", Need: 128, Used: 64, Reserved: 0, Budget: 96}, 0.5)
	add(&Evict{Lane: 2, Block: block, Bytes: 64, Dur: 1e-7, Forced: true, Policy: "lookahead", Dst: "NVM"}, 0.6)
	add(&Evict{Lane: 3, Block: block, Bytes: 64, Dur: 0.5, Policy: "decl"}, 1.1)
	add(&Adapt{Window: 1, Action: "switch:multiio"}, 1.2)
	add(&Retune{Knobs: Knobs{Mode: "Multiple IO threads", EvictPolicy: "lru"}}, 1.2)
	add(&Adapt{Window: 2, Action: ""}, 1.3)
	add(&LaneAssign{Window: 9, Lanes: 3, Total: 3, Active: 1}, 1e22)
	add(&Stats{Makespan: 1.3, Tasks: 1}, 1.3)
	return c
}

// TestExportChromeMatchesReflect covers what the X11 capture does not:
// lanes/adapt/retune events, multi-tier destinations, and names that
// need escaping (HTML characters, quotes, invalid UTF-8).
func TestExportChromeMatchesReflect(t *testing.T) {
	for _, tc := range []struct{ name, block, arr string }{
		{"plain", "blk_0", "stencil"},
		{"html", "a<b>&c", "arr&<x>"},
		{"quote", `q"b\\`, `s"t`},
		{"invalid utf8", "bad\xc3(\xff", "arr\xe2\x82"},
		{"unicode", "h\u00e9\u2028", "\u03b1rr"},
	} {
		ExportChromeMatches(t, tc.name, chromeFixture(tc.block, tc.arr))
	}
	ExportChromeMatches(t, "empty", &Capture{})
	ExportChromeMatches(t, "no meta", &Capture{Events: chromeFixture("b", "a").Events[1:]})
}

// TestExportChromeNonFinite: a non-finite timestamp fails with
// encoding/json's error.
func TestExportChromeNonFinite(t *testing.T) {
	c := chromeFixture("b", "a")
	c.Events[5].(*FetchEnd).Dur = math.Inf(1)
	err := ExportChrome(c, io.Discard)
	want := exportChromeReflect(c, io.Discard)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("ExportChrome error %v, oracle %v", err, want)
	}
}
