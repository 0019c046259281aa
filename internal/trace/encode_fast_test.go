package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// floatRegimes covers every branch of encoding/json's float renderer:
// zero, plain 'f' range, both 'e' ranges, single- and multi-digit
// exponents (the "e-0X" trim), negatives and extremes.
var floatRegimes = []float64{
	0, 1, -1, 0.5, 2.25e-3,
	1e-6, 1.5e-6, 9.999999e-7, 1e-7, -3.25e-9, 4.25e-21,
	1e21, -2.5e21, 1.7976931348623157e308, 5e-324,
	123456.789, 0.1, 1.0 / 3.0,
	math.Copysign(0, -1), // negative zero renders as "-0"
}

// hotEvents returns events of every fast-path kind across every float
// regime, with K set as a decoder sets it.
func hotEvents() []Event {
	var events []Event
	for i, f := range floatRegimes {
		hdr := Ev{Seq: int64(i), T: f}
		events = append(events,
			&HandleDecl{Ev: hdr, Block: "A.halo_0", Bytes: 1 << 20, Node: "HBM"},
			&Send{Ev: hdr, ID: int64(i), Arr: "stencil", Idx: i, Entry: "iterate", PE: i % 8, From: -1, Prefetch: true,
				Deps: []Dep{{Block: "blk_0", Bytes: 4096, Mode: "RW"}, {Block: "blk_1", Bytes: 0, Mode: "RO"}}},
			&Send{Ev: hdr, ID: 7, Arr: "a", Idx: 0, Entry: "e", PE: 0, From: 3, Prefetch: false}, // no deps: omitempty
			&Admit{Ev: hdr, ID: 2, PE: 1, Bytes: 123, Staged: i%2 == 0},
			&RunStart{Ev: hdr, ID: 3, PE: 2},
			&RunEnd{Ev: hdr, ID: 3, PE: 2},
			&Kernel{Ev: hdr, ID: -1, PE: -1, Flops: f, Scale: 0.75, Start: f, Dur: f},
			&FetchStart{Ev: hdr, Lane: 0, Block: "b", Bytes: 1},
			&FetchEnd{Ev: hdr, Lane: 1, Block: "b", Bytes: 1, Dur: f, Src: "DDR4", Refetch: true},
			&Evict{Ev: hdr, Lane: 2, Block: "b", Bytes: 9, Dur: f, Forced: false, Policy: "lookahead"},
			&Evict{Ev: hdr, Lane: 2, Block: "b", Bytes: 9, Dur: f, Forced: true, Policy: "decl", Dst: "NVM"}, // multi-tier: dst recorded
			&Pressure{Ev: hdr, PE: 4, Task: "stencil[3].iterate", Need: 5, Used: 6, Reserved: 7, Budget: 8},
			&LaneAssign{Ev: hdr, Window: i, Lanes: i % 4, Total: 8, Active: 2},
			&Adapt{Ev: hdr, Window: i, Action: "switch:multiio"},
			&TaskDone{Ev: hdr, ID: int64(i)},
		)
	}
	for _, e := range events {
		e.header().K = e.Kind()
	}
	return events
}

// TestAppendEventMatchesJSON pins the hard requirement on the fast
// encoder: for every hot event kind and every float regime, the bytes
// must equal json.Marshal's exactly.
func TestAppendEventMatchesJSON(t *testing.T) {
	for _, e := range hotEvents() {
		want, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("json.Marshal(%T): %v", e, err)
		}
		got, ok := appendEvent(nil, e)
		if !ok {
			t.Fatalf("appendEvent(%T) took the fallback for safe input %s", e, want)
		}
		if string(got) != string(want) {
			t.Errorf("%T encoding mismatch:\n fast: %s\n json: %s", e, got, want)
		}
	}
}

// TestAppendEventFallsBackOnUnsafeStrings: strings needing escapes must
// refuse the fast path so json.Marshal keeps its exact escaping.
func TestAppendEventFallsBackOnUnsafeStrings(t *testing.T) {
	unsafe := []string{`a"b`, `a\b`, "a<b", "a>b", "a&b", "a\nb", "héllo"}
	for _, s := range unsafe {
		ev := &HandleDecl{Block: s, Bytes: 1, Node: "HBM"}
		ev.K = ev.Kind()
		if _, ok := appendEvent(nil, ev); ok {
			t.Errorf("appendEvent accepted unsafe string %q", s)
		}
	}
}

// TestEncodeMixedFallback: a capture mixing fast-path and fallback
// events encodes identically to a pure json.Marshal loop.
func TestEncodeMixedFallback(t *testing.T) {
	c := &Capture{}
	meta := &Meta{Version: Version, NumPEs: 4, Seed: 9}
	meta.K = meta.Kind()
	c.Events = append(c.Events, meta)
	re := &Retune{Knobs: Knobs{Mode: "multiio", EvictPolicy: "lru"}}
	re.K = re.Kind()
	weird := &HandleDecl{Block: "needs<escape>", Bytes: 2, Node: "DDR4"}
	weird.K = weird.Kind()
	done := &TaskDone{ID: 1}
	done.K = done.Kind()
	done.T = 3.5e-8
	c.Events = append(c.Events, re, weird, done)

	var want []byte
	for _, e := range c.Events {
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
		want = append(want, '\n')
	}
	if got := c.Bytes(); string(got) != string(want) {
		t.Fatalf("Encode mismatch:\n got: %s\nwant: %s", got, want)
	}
}

// TestEncodeWithoutKind: a capture whose events never had K set
// encodes with each event's Kind — through the fast appenders and the
// reflective fallback alike — and decodes back, and Encode leaves the
// events untouched.
func TestEncodeWithoutKind(t *testing.T) {
	c := &Capture{Events: []Event{
		&Meta{Version: Version, NumPEs: 2, Seed: 1},
		&HandleDecl{Block: "blk_0", Bytes: 64, Node: "HBM"},
		&HandleDecl{Block: "needs<escape>", Bytes: 64, Node: "HBM"},
		&Send{ID: 1, Arr: "a", Entry: "run", Deps: []Dep{{Block: "blk_0", Bytes: 64, Mode: "rw"}}},
		&RunStart{ID: 1}, &RunEnd{ID: 1}, &TaskDone{ID: 1},
		&Retune{Knobs: Knobs{Mode: "Multiple IO threads"}},
		&Stats{Tasks: 1},
	}}
	enc := c.Bytes()
	d, err := Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("capture built without K does not decode: %v\n%s", err, enc)
	}
	if len(d.Events) != len(c.Events) {
		t.Fatalf("decoded %d events, want %d", len(d.Events), len(c.Events))
	}
	for i, e := range c.Events {
		if got := d.Events[i].Kind(); got != e.Kind() {
			t.Errorf("event %d decoded as %s, want %s", i, got, e.Kind())
		}
		if e.header().K != "" {
			t.Errorf("Encode wrote K=%q into a %s event", e.header().K, e.Kind())
		}
	}
	if again := d.Bytes(); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding the decoded capture changed it:\n%s\n%s", enc, again)
	}
}
