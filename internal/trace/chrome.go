package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// The output is catapult's trace_event "JSON Array Format": complete
// spans (ph "X"), instants (ph "i"), counters (ph "C") and thread-name
// metadata (ph "M"), timestamps in microseconds of virtual time. It is
// written event by event, byte-identical to what encoding/json makes of
// this shape (field order name, ph, ts, dur, pid, tid, s, args; dur
// and s omitted when zero, as is every zero field inside args;
// HTML-safe string escaping):
//
//	{"traceEvents":[{…},…],"displayTimeUnit":"ms"}
//
// chrome_test.go keeps the reflective exporter as the oracle.

const usec = 1e6 // seconds -> trace_event microseconds

// chromeSpanArgs is the args object of spans and instants; every field
// is omitted when zero.
type chromeSpanArgs struct {
	ID      int64
	Block   string
	Bytes   int64
	Src     string
	Refetch bool
	Forced  bool
	Policy  string
	Task    string
	Action  string
}

// ExportChrome converts a capture to Chrome trace_event JSON: one track
// (thread) per PE for entry-method execution, one per IO lane for
// fetch/evict spans, instants for pressure, retune and adapt decisions,
// and a stacked "io lanes" counter for hetmemd's lane grants. Open the
// output in any trace viewer (chrome://tracing, Perfetto). If a
// timestamp is not finite the error is encoding/json's, and the output
// written so far is a truncated prefix.
func ExportChrome(c *Capture, w io.Writer) error {
	numPEs := 0
	if m := c.Meta(); m != nil {
		numPEs = m.NumPEs
	}
	// First pass: the tracks, whose thread-name metadata leads the file.
	lanes := map[int]bool{}
	for _, e := range c.Events {
		switch ev := e.(type) {
		case *RunStart:
			lanes[ev.PE] = true
		case *FetchEnd:
			lanes[ev.Lane] = true
		case *Evict:
			lanes[ev.Lane] = true
		case *Pressure:
			lanes[ev.PE] = true
		}
	}
	laneIDs := make([]int, 0, len(lanes))
	for lane := range lanes {
		laneIDs = append(laneIDs, lane)
	}
	sort.Ints(laneIDs)

	x := &chromeWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	x.bw.WriteString(`{"traceEvents":[`)
	for _, lane := range laneIDs {
		x.begin()
		x.str("thread_name")
		x.head("M", 0, 0, lane, "")
		x.b = append(x.b, `,"args":{"name":"`...)
		if numPEs > 0 && lane >= numPEs {
			x.b = append(x.b, "IO "...)
			x.b = strconv.AppendInt(x.b, int64(lane-numPEs), 10)
		} else {
			x.b = append(x.b, "PE "...)
			x.b = strconv.AppendInt(x.b, int64(lane), 10)
		}
		x.b = append(x.b, `"}`...)
		x.end()
	}

	sends := map[int64]*Send{}
	runOpen := map[int64]float64{}
	for _, e := range c.Events {
		t := float64(e.header().T) * usec
		switch ev := e.(type) {
		case *Send:
			sends[ev.ID] = ev
		case *RunStart:
			runOpen[ev.ID] = t
		case *RunEnd:
			if start, ok := runOpen[ev.ID]; ok {
				x.begin()
				x.taskName(sends[ev.ID])
				x.head("X", start, t-start, ev.PE, "")
				x.args(chromeSpanArgs{ID: ev.ID})
				x.end()
				delete(runOpen, ev.ID)
			}
		case *FetchEnd:
			x.begin()
			x.prefixed("fetch ", ev.Block)
			x.head("X", t-float64(ev.Dur)*usec, float64(ev.Dur)*usec, ev.Lane, "")
			x.args(chromeSpanArgs{Block: ev.Block, Bytes: ev.Bytes, Src: ev.Src, Refetch: ev.Refetch})
			x.end()
		case *Evict:
			x.begin()
			x.prefixed("evict ", ev.Block)
			x.head("X", t-float64(ev.Dur)*usec, float64(ev.Dur)*usec, ev.Lane, "")
			x.args(chromeSpanArgs{Block: ev.Block, Bytes: ev.Bytes, Forced: ev.Forced, Policy: ev.Policy})
			x.end()
		case *Pressure:
			x.begin()
			x.str("pressure")
			x.head("i", t, 0, ev.PE, "t")
			x.args(chromeSpanArgs{Task: ev.Task, Bytes: ev.Need})
			x.end()
		case *LaneAssign:
			// A stacked counter: lanes granted to this session vs the
			// rest of the pool, so tenant contention reads directly off
			// the track height split.
			x.begin()
			x.str("io lanes")
			x.head("C", t, 0, 0, "")
			x.b = append(x.b, `,"args":{"granted":`...)
			x.b = strconv.AppendInt(x.b, int64(ev.Lanes), 10)
			x.b = append(x.b, `,"others":`...)
			x.b = strconv.AppendInt(x.b, int64(ev.Total-ev.Lanes), 10)
			x.b = append(x.b, '}')
			x.end()
		case *Retune:
			x.begin()
			x.prefixed("retune ", ev.Knobs.Mode)
			x.head("i", t, 0, 0, "g")
			x.end()
		case *Adapt:
			x.begin()
			x.str("adapt")
			x.head("i", t, 0, 0, "g")
			x.args(chromeSpanArgs{Action: ev.Action})
			x.end()
		}
		if x.err != nil {
			return x.err
		}
	}
	x.bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return x.bw.Flush()
}

// chromeWriter builds one trace event at a time in b and writes it to
// bw.
type chromeWriter struct {
	bw  *bufio.Writer
	b   []byte
	n   int   // events written
	err error // first non-finite float
}

// begin starts an event, up to its name value.
func (x *chromeWriter) begin() {
	x.b = x.b[:0]
	if x.n > 0 {
		x.b = append(x.b, ',')
	}
	x.b = append(x.b, `{"name":`...)
}

// end closes the event and writes it.
func (x *chromeWriter) end() {
	x.b = append(x.b, '}')
	x.bw.Write(x.b)
	x.n++
}

// head appends the fields between the name and the args; dur and s
// are omitted when zero, pid is always 0.
func (x *chromeWriter) head(ph string, ts, dur float64, tid int, s string) {
	x.b = append(x.b, `,"ph":"`...)
	x.b = append(x.b, ph...)
	x.b = append(x.b, `","ts":`...)
	x.float(ts)
	if dur != 0 {
		x.b = append(x.b, `,"dur":`...)
		x.float(dur)
	}
	x.b = append(x.b, `,"pid":0,"tid":`...)
	x.b = strconv.AppendInt(x.b, int64(tid), 10)
	if s != "" {
		x.b = append(x.b, `,"s":"`...)
		x.b = append(x.b, s...)
		x.b = append(x.b, '"')
	}
}

// args appends a span's args object, zero fields omitted.
func (x *chromeWriter) args(a chromeSpanArgs) {
	x.b = append(x.b, `,"args":{`...)
	open := len(x.b)
	key := func(k string) {
		if len(x.b) > open {
			x.b = append(x.b, ',')
		}
		x.b = append(x.b, k...)
	}
	if a.ID != 0 {
		key(`"id":`)
		x.b = strconv.AppendInt(x.b, a.ID, 10)
	}
	if a.Block != "" {
		key(`"block":`)
		x.str(a.Block)
	}
	if a.Bytes != 0 {
		key(`"bytes":`)
		x.b = strconv.AppendInt(x.b, a.Bytes, 10)
	}
	if a.Src != "" {
		key(`"src":`)
		x.str(a.Src)
	}
	if a.Refetch {
		key(`"refetch":true`)
	}
	if a.Forced {
		key(`"forced":true`)
	}
	if a.Policy != "" {
		key(`"policy":`)
		x.str(a.Policy)
	}
	if a.Task != "" {
		key(`"task":`)
		x.str(a.Task)
	}
	if a.Action != "" {
		key(`"action":`)
		x.str(a.Action)
	}
	x.b = append(x.b, '}')
}

// float appends f as encoding/json does, recording its error for a
// non-finite value.
func (x *chromeWriter) float(f float64) {
	var ok bool
	if x.b, ok = appendJSONFloat(x.b, f); !ok && x.err == nil {
		_, x.err = json.Marshal(f)
	}
}

// str appends s as a JSON string; strings that need escaping go
// through encoding/json, which also replaces invalid UTF-8.
func (x *chromeWriter) str(s string) {
	if b, ok := appendSafeString(x.b, s); ok {
		x.b = b
		return
	}
	j, _ := json.Marshal(s) // a string always marshals
	x.b = append(x.b, j...)
}

// prefixed appends the string prefix+s without building it when s
// needs no escaping (prefix never does).
func (x *chromeWriter) prefixed(prefix, s string) {
	if !safeString(s) {
		x.str(prefix + s)
		return
	}
	x.b = append(x.b, '"')
	x.b = append(x.b, prefix...)
	x.b = append(x.b, s...)
	x.b = append(x.b, '"')
}

// taskName appends the "arr[idx].entry" span name of a task, "" when
// its send was not captured.
func (x *chromeWriter) taskName(s *Send) {
	switch {
	case s == nil:
		x.b = append(x.b, `""`...)
	case safeString(s.Arr) && safeString(s.Entry):
		x.b = append(x.b, '"')
		x.b = append(x.b, s.Arr...)
		x.b = append(x.b, '[')
		x.b = strconv.AppendInt(x.b, int64(s.Idx), 10)
		x.b = append(x.b, "]."...)
		x.b = append(x.b, s.Entry...)
		x.b = append(x.b, '"')
	default:
		x.str(fmt.Sprintf("%s[%d].%s", s.Arr, s.Idx, s.Entry))
	}
}
