package trace

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
)

// Diff compares two captures for hmtrace diff. Two layers:
//
//   - Stream: the encoded event sequences are compared line by line,
//     and the first divergent event is named. This is the strictest
//     check — byte-identity of the full JSONL streams.
//
//   - Task alignment: task-scoped events (send, admit, run-start,
//     run-end, done) are grouped per task ID and compared task by
//     task, so a single reordered fetch early in a capture does not
//     obscure whether the schedules themselves agree. The first task
//     whose timeline differs is named along with the event kind that
//     diverges.
//
// The task layer is what makes the tool usable on near-miss captures:
// the stream index tells you where the files part ways, the task
// report tells you which unit of work first behaved differently. It is
// built only once the streams diverge. Diff only reads its captures.

// DiffResult is the comparison outcome; render it with String.
type DiffResult struct {
	AEvents, BEvents int
	Identical        bool

	// Stream layer: index of the first differing encoded event, with
	// both renderings ("" when one stream ended early). -1 when the
	// common prefix — and, if Identical, everything — matches.
	DivergeIndex       int
	DivergeA, DivergeB string

	// Task layer.
	TasksA, TasksB int
	TasksMatched   int
	// FirstTaskID is the lowest task ID whose timeline differs, -1 if
	// the task layers agree. FirstTaskKind is the event kind within
	// that task's timeline that first diverges.
	FirstTaskID            int64
	FirstTaskKind          string
	FirstTaskA, FirstTaskB string
}

// encodeLine renders one event exactly as it appears in the JSONL
// capture (fast path or reflective, identical bytes either way).
func encodeLine(e Event) string {
	return string(appendDiffLine(nil, e))
}

// appendDiffLine appends e's capture line; an unencodable event renders
// as a marker instead, so the comparison still names it.
func appendDiffLine(b []byte, e Event) []byte {
	out, err := appendLine(b, e)
	if err != nil {
		return fmt.Appendf(b, "<unencodable %s: %v>", e.Kind(), err)
	}
	return out
}

// taskKinds is the per-task timeline order used by the task layer.
var taskKinds = []string{"send", "admit", "run-start", "run-end", "done"}

// taskTimeline groups one task's events by kind, in stream order.
type taskTimeline map[string][]string

// taskID extracts the task ID from a task-scoped event, ok=false for
// every other kind.
func taskID(e Event) (int64, bool) {
	switch ev := e.(type) {
	case *Send:
		return ev.ID, true
	case *Admit:
		return ev.ID, true
	case *RunStart:
		return ev.ID, true
	case *RunEnd:
		return ev.ID, true
	case *TaskDone:
		return ev.ID, true
	}
	return 0, false
}

// taskIndex builds the per-task timelines of a capture.
func taskIndex(c *Capture) map[int64]taskTimeline {
	idx := make(map[int64]taskTimeline)
	for _, e := range c.Events {
		id, ok := taskID(e)
		if !ok {
			continue
		}
		tl := idx[id]
		if tl == nil {
			tl = make(taskTimeline)
			idx[id] = tl
		}
		tl[e.Kind()] = append(tl[e.Kind()], encodeLine(e))
	}
	return idx
}

// countTasks returns the number of distinct task IDs in c.
func countTasks(c *Capture) int {
	seen := make(map[int64]struct{})
	for _, e := range c.Events {
		if id, ok := taskID(e); ok {
			seen[id] = struct{}{}
		}
	}
	return len(seen)
}

// diffTimelines returns the first divergent kind and both renderings,
// ok=false when the timelines agree.
func diffTimelines(a, b taskTimeline) (kind, la, lb string, ok bool) {
	for _, k := range taskKinds {
		ea, eb := a[k], b[k]
		n := len(ea)
		if len(eb) > n {
			n = len(eb)
		}
		for i := 0; i < n; i++ {
			var va, vb string
			if i < len(ea) {
				va = ea[i]
			}
			if i < len(eb) {
				vb = eb[i]
			}
			if va != vb {
				return k, va, vb, true
			}
		}
	}
	return "", "", "", false
}

// Diff compares captures a and b.
func Diff(a, b *Capture) *DiffResult {
	r := &DiffResult{
		AEvents:      len(a.Events),
		BEvents:      len(b.Events),
		DivergeIndex: -1,
		FirstTaskID:  -1,
	}

	// Stream layer: one encoding of each event at a time, into two
	// reused buffers.
	n := len(a.Events)
	if len(b.Events) < n {
		n = len(b.Events)
	}
	var la, lb []byte
	for i := 0; i < n; i++ {
		la, lb = appendDiffLine(la[:0], a.Events[i]), appendDiffLine(lb[:0], b.Events[i])
		if !bytes.Equal(la, lb) {
			r.DivergeIndex, r.DivergeA, r.DivergeB = i, string(la), string(lb)
			break
		}
	}
	if r.DivergeIndex == -1 && len(a.Events) != len(b.Events) {
		r.DivergeIndex = n
		if n < len(a.Events) {
			r.DivergeA = encodeLine(a.Events[n])
		}
		if n < len(b.Events) {
			r.DivergeB = encodeLine(b.Events[n])
		}
	}
	if r.DivergeIndex == -1 {
		// A task timeline is a function of the stream, so identical
		// streams have identical timelines: count the tasks, skip the
		// per-task comparison.
		n := countTasks(a)
		r.TasksA, r.TasksB, r.TasksMatched = n, n, n
		r.Identical = true
		return r
	}

	// Task layer.
	ta, tb := taskIndex(a), taskIndex(b)
	r.TasksA, r.TasksB = len(ta), len(tb)
	ids := make([]int64, 0, len(ta)+len(tb))
	for id := range ta {
		ids = append(ids, id)
	}
	for id := range tb {
		if _, dup := ta[id]; !dup {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		la, lb := ta[id], tb[id]
		if la == nil {
			la = taskTimeline{}
		}
		if lb == nil {
			lb = taskTimeline{}
		}
		kind, va, vb, diverged := diffTimelines(la, lb)
		if !diverged {
			r.TasksMatched++
			continue
		}
		if r.FirstTaskID == -1 {
			r.FirstTaskID, r.FirstTaskKind = id, kind
			r.FirstTaskA, r.FirstTaskB = va, vb
		}
	}

	r.Identical = r.DivergeIndex == -1 && r.FirstTaskID == -1
	return r
}

// String renders the diff report.
func (r *DiffResult) String() string {
	var b strings.Builder
	if r.Identical {
		fmt.Fprintf(&b, "captures identical: %d events, %d tasks\n", r.AEvents, r.TasksA)
		return b.String()
	}
	fmt.Fprintf(&b, "captures differ: a=%d events, b=%d events\n", r.AEvents, r.BEvents)
	if r.DivergeIndex >= 0 {
		fmt.Fprintf(&b, "first divergent event at index %d:\n", r.DivergeIndex)
		fmt.Fprintf(&b, "  a: %s\n  b: %s\n", orMissing(r.DivergeA), orMissing(r.DivergeB))
	}
	fmt.Fprintf(&b, "tasks: a=%d, b=%d, aligned=%d\n", r.TasksA, r.TasksB, r.TasksMatched)
	if r.FirstTaskID >= 0 {
		fmt.Fprintf(&b, "first divergent task id=%d (at its %q event):\n", r.FirstTaskID, r.FirstTaskKind)
		fmt.Fprintf(&b, "  a: %s\n  b: %s\n", orMissing(r.FirstTaskA), orMissing(r.FirstTaskB))
	} else {
		fmt.Fprint(&b, "task timelines agree; the divergence is in non-task events (fetch/evict/adapt/...)\n")
	}
	return b.String()
}

func orMissing(s string) string {
	if s == "" {
		return "<missing>"
	}
	return s
}
