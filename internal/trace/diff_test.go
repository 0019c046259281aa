package trace

import (
	"strings"
	"sync"
	"testing"
)

// diffFixture builds a small capture with two tasks and some non-task
// traffic. Like any hand-built capture it leaves the K fields unset:
// the encoders take the kind from Kind.
func diffFixture() *Capture {
	c := &Capture{}
	add := func(e Event, t float64) {
		e.header().Seq = int64(len(c.Events))
		e.header().T = t
		c.Events = append(c.Events, e)
	}
	meta := &Meta{Version: Version, NumPEs: 2, Seed: 1}
	add(meta, 0)
	add(&HandleDecl{Block: "blk_0", Bytes: 4096, Node: "HBM"}, 0)
	add(&Send{ID: 0, Arr: "a", Idx: 0, Entry: "run", PE: 0, From: -1}, 0)
	add(&Send{ID: 1, Arr: "a", Idx: 1, Entry: "run", PE: 1, From: -1}, 0)
	add(&FetchStart{Lane: 0, Block: "blk_0", Bytes: 4096}, 0.1)
	add(&Admit{ID: 0, PE: 0, Bytes: 4096, Staged: true}, 0.2)
	add(&RunStart{ID: 0, PE: 0}, 0.3)
	add(&RunEnd{ID: 0, PE: 0}, 0.4)
	add(&TaskDone{ID: 0}, 0.4)
	add(&Admit{ID: 1, PE: 1, Bytes: 4096, Staged: false}, 0.5)
	add(&RunStart{ID: 1, PE: 1}, 0.6)
	add(&RunEnd{ID: 1, PE: 1}, 0.7)
	add(&TaskDone{ID: 1}, 0.7)
	return c
}

func TestDiffIdentical(t *testing.T) {
	r := Diff(diffFixture(), diffFixture())
	if !r.Identical {
		t.Fatalf("identical captures reported as differing: %s", r)
	}
	if r.TasksA != 2 || r.TasksMatched != 2 {
		t.Fatalf("task accounting wrong: %+v", r)
	}
	if !strings.Contains(r.String(), "captures identical") {
		t.Fatalf("report: %s", r)
	}
}

func TestDiffTaskDivergence(t *testing.T) {
	a, b := diffFixture(), diffFixture()
	// Shift task 1's run-start: index 10 in the fixture.
	b.Events[10].header().T = 0.65
	r := Diff(a, b)
	if r.Identical {
		t.Fatal("divergent captures reported identical")
	}
	if r.DivergeIndex != 10 {
		t.Fatalf("first divergent event at %d, want 10", r.DivergeIndex)
	}
	if r.FirstTaskID != 1 || r.FirstTaskKind != "run-start" {
		t.Fatalf("first divergent task %d at %q, want 1 at run-start", r.FirstTaskID, r.FirstTaskKind)
	}
	if r.TasksMatched != 1 {
		t.Fatalf("matched %d tasks, want 1", r.TasksMatched)
	}
	rep := r.String()
	for _, want := range []string{"first divergent event at index 10", `id=1`, "run-start"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestDiffNonTaskDivergence(t *testing.T) {
	a, b := diffFixture(), diffFixture()
	// Perturb only the fetch event: tasks align, streams do not.
	b.Events[4].(*FetchStart).Bytes = 8192
	r := Diff(a, b)
	if r.Identical {
		t.Fatal("divergent captures reported identical")
	}
	if r.DivergeIndex != 4 {
		t.Fatalf("first divergent event at %d, want 4", r.DivergeIndex)
	}
	if r.FirstTaskID != -1 || r.TasksMatched != 2 {
		t.Fatalf("task layer should fully align: %+v", r)
	}
	if !strings.Contains(r.String(), "non-task events") {
		t.Fatalf("report: %s", r)
	}
}

func TestDiffMissingTask(t *testing.T) {
	a, b := diffFixture(), diffFixture()
	// Drop task 1's done event from b.
	b.Events = b.Events[:len(b.Events)-1]
	r := Diff(a, b)
	if r.Identical {
		t.Fatal("truncated capture reported identical")
	}
	if r.FirstTaskID != 1 || r.FirstTaskKind != "done" {
		t.Fatalf("first divergent task %d at %q, want 1 at done", r.FirstTaskID, r.FirstTaskKind)
	}
	if !strings.Contains(r.String(), "<missing>") {
		t.Fatalf("report should mark the missing side:\n%s", r)
	}
}

// TestDiffConcurrentSharedCaptures: Diff only reads its captures, so
// diffs sharing them may run concurrently (the race detector checks
// this under -race) and K fields left unset stay unset.
func TestDiffConcurrentSharedCaptures(t *testing.T) {
	a, b := diffFixture(), diffFixture()
	b.Events[10].header().T = 0.65 // diverges, so the task layer runs too
	want := []*DiffResult{Diff(a, a), Diff(a, b)}
	got := make([]*DiffResult, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				got[i] = Diff(a, a)
			} else {
				got[i] = Diff(a, b)
			}
		}()
	}
	wg.Wait()
	for i, r := range got {
		if *r != *want[i%2] {
			t.Fatalf("concurrent diff %d = %+v, want %+v", i, r, want[i%2])
		}
	}
	if !want[0].Identical || want[1].Identical {
		t.Fatalf("identical %v / divergent %v, want true / false", want[0].Identical, want[1].Identical)
	}
	for _, c := range []*Capture{a, b} {
		for _, e := range c.Events {
			if e.header().K != "" {
				t.Fatalf("Diff wrote K=%q into a %s event", e.header().K, e.Kind())
			}
		}
	}
}
