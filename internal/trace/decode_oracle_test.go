package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
)

// decodeReflect is the decoder Decode replaced, kept verbatim as the
// oracle for the fast path: probe the kind with one json.Unmarshal,
// decode the event with a second.
func decodeReflect(r io.Reader) (*Capture, error) {
	c := &Capture{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return c, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		e, err := newEvent(probe.K)
		if err != nil {
			return c, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if err := json.Unmarshal(line, e); err != nil {
			return c, fmt.Errorf("trace: line %d: decode %s event: %w", lineNo, probe.K, err)
		}
		if m, ok := e.(*Meta); ok && m.Version != Version {
			return c, fmt.Errorf("trace: line %d: capture version %d, decoder supports %d", lineNo, m.Version, Version)
		}
		c.Events = append(c.Events, e)
	}
	if err := sc.Err(); err != nil {
		return c, fmt.Errorf("trace: line %d: %w", lineNo, err)
	}
	if len(c.Events) == 0 {
		return c, fmt.Errorf("trace: empty capture")
	}
	return c, nil
}

// adversarialLines are inputs the fast decoder's scanner would read
// wrongly or that encoding/json treats specially; each must leave
// Decode exactly where decodeReflect ends up.
var adversarialLines = []string{
	`{"k":"run-start","seq":1,"t":-0,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1e-7,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1E2,"id":3,"pe":1}`,
	`{"k":"run-start","seq":01,"t":1,"id":3,"pe":1}`,
	`{"k":"run-start","seq":12345678901234567890,"t":1,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1,"id":3,"id":4,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1,"pe":1,"id":3}`,
	`{"k":"run-start", "seq":1,"t":1,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1,"id":3,"pe":1} `,
	`{"k":"run-start","seq":1,"t":1,"id":3,"pe":1,"x":2}`,
	`{"k":"run-start","seq":1,"t":1,"id":3,"pe":1}}`,
	`{"k":"run-start","seq":1,"t":1e+21,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1e21,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1e400,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1.0,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1,"id":3.5,"pe":1}`,
	`{"k":"run-start","seq":-0,"t":1,"id":3,"pe":1}`,
	`{"k":"run-\u0073tart","seq":1,"t":1,"id":3,"pe":1}`,
	`{"K":"run-start","seq":1,"t":1,"id":3,"pe":1}`,
	`{"k":"run-start","seq":1,"t":1,"id":3,"pe":1`,
	`{"k":"handle","seq":2,"t":0,"block":"a<b","bytes":4096,"node":"HBM"}`,
	`{"k":"handle","seq":2,"t":0,"block":"a\u003cb","bytes":4096,"node":"HBM"}`,
	`{"k":"handle","seq":2,"t":0,"block":"a\"b","bytes":4096,"node":"HBM"}`,
	`{"k":"handle","seq":2,"t":0,"block":"a\\","bytes":4096,"node":"HBM"}`,
	`{"k":"handle","seq":2,"t":0,"block":"h\u00e9","bytes":4096,"node":"HBM"}`,
	"{\"k\":\"handle\",\"seq\":2,\"t\":0,\"block\":\"h\xc3\",\"bytes\":4096,\"node\":\"HBM\"}",
	`{"k":"evict","seq":3,"t":1.5,"lane":9,"block":"b","bytes":1,"dur":0.25,"forced":false,"policy":"decl","dst":""}`,
	`{"k":"evict","seq":3,"t":1.5,"lane":9,"block":"b","bytes":1,"dur":0.25,"forced":false,"policy":"decl","dst":"NVM"}`,
	`{"k":"evict","seq":3,"t":1.5,"lane":9,"block":"b","bytes":1,"dur":0.25,"forced":true,"policy":"decl"}`,
	`{"k":"send","seq":4,"t":0,"id":1,"arr":"a","idx":0,"entry":"e","pe":0,"from":-1,"prefetch":true,"deps":[]}`,
	`{"k":"send","seq":4,"t":0,"id":1,"arr":"a","idx":0,"entry":"e","pe":0,"from":-1,"prefetch":true,"deps":null}`,
	`{"k":"send","seq":4,"t":0,"id":1,"arr":"a","idx":0,"entry":"e","pe":0,"from":-1,"prefetch":true,"deps":[{"block":"x","bytes":2,"mode":"RW"},{"block":"y","bytes":3,"mode":"RO"}]}`,
	`{"k":"send","seq":4,"t":0,"id":1,"arr":"a","idx":0,"entry":"e","pe":0,"from":-1,"prefetch":true,"deps":[{"block":"x","bytes":2,"mode":"RW"},]}`,
	`{"k":"send","seq":4,"t":0,"id":1,"arr":"a","idx":0,"entry":"e","pe":0,"from":-1,"prefetch":TRUE}`,
	`{"k":"kernel","seq":5,"t":2,"id":1,"pe":0,"flops":1.5e9,"scale":0.75,"start":1,"dur":1}`,
	`{"k":"kernel","seq":5,"t":2,"id":1,"pe":0,"flops":1500000000,"scale":0.75,"start":1,"dur":1}`,
	`{"k":"lanes","seq":6,"t":2,"window":1,"lanes":2,"total":8,"active":2}`,
	`{"k":"adapt","seq":7,"t":2,"window":1,"action":"switch:multiio"}`,
	`{"k":"pressure","seq":8,"t":2,"pe":1,"task":"s[1].it","need":1,"used":2,"reserved":3,"budget":4}`,
	`{"k":"done","seq":9,"t":2,"id":99999999999999999999}`,
	`{"k":"done","seq":9,"t":2,"id":1}`,
	`{"k":"nope","seq":9,"t":2}`,
	`{"k":"meta","seq":0,"t":0,"version":2}`,
	`{`,
	``,
}

// decodeSeeds is the fuzz and table corpus: one capture line of each
// kind, the adversarial lines, and whole-capture shapes (truncated,
// corrupt, version mismatch, empty).
func decodeSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	lines := seedEventLines(t)
	seeds = append(seeds, lines...)
	for _, l := range adversarialLines {
		seeds = append(seeds, []byte(l))
	}
	good := bytes.Join(lines, []byte("\n"))
	seeds = append(seeds,
		good,
		good[:len(good)-7], // truncated mid-line
		append(append([]byte{}, good...), "\n{\"k\":\"done\",\"seq\":x}\n"...), // corrupt tail
		[]byte(`{"k":"meta","seq":0,"t":0,"version":1,"num_pes":1}`+"\n"+`{"k":"bogus"}`+"\n"),
		[]byte(`{"k":"meta","seq":0,"t":0,"version":99}`+"\n"+string(lines[1])),
		[]byte("\n\n\n"),
		[]byte("   \n"+string(lines[1])+"  \n\n"),
	)
	return seeds
}

// sameDecode fails t unless Decode and decodeReflect agree on data:
// deep-equal events (the recovered prefix too) and identical errors.
func sameDecode(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := Decode(bytes.NewReader(data))
	want, wantErr := decodeReflect(bytes.NewReader(data))
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error mismatch on %q:\n fast: %v\n json: %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("events mismatch on %q:\n fast: %s\n json: %s", data, dumpEvents(got), dumpEvents(want))
	}
}

func dumpEvents(c *Capture) string {
	var b bytes.Buffer
	for _, e := range c.Events {
		fmt.Fprintf(&b, "%T%+v\n", e, e)
	}
	return b.String()
}

// TestDecodeMatchesReflect runs the oracle over the seed corpus and the
// committed capture in full.
func TestDecodeMatchesReflect(t *testing.T) {
	for _, s := range decodeSeeds(t) {
		sameDecode(t, s)
	}
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sameDecode(t, data)
}

// TestFastDecodeCoversHotKinds: every canonical line of a fast-path
// kind takes the fast path and yields the encoded event (a shape
// mismatch would fall back silently and only show as lost speed), for
// every kind and float regime and for every line of the committed
// capture.
func TestFastDecodeCoversHotKinds(t *testing.T) {
	d := newFastDecoder()
	for _, e := range hotEvents() {
		line, _ := appendEvent(nil, e)
		if got := d.decode(line); !reflect.DeepEqual(got, e) {
			t.Fatalf("fast decode of %s = %+v, want %+v", line, got, e)
		}
	}
	data, err := os.ReadFile("testdata/x11-small.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if d.decode(line) != nil {
			continue
		}
		var probe struct {
			K string `json:"k"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatal(err)
		}
		e, err := newEvent(probe.K)
		if err != nil {
			t.Fatal(err)
		}
		if _, fast := appendEvent(nil, e); fast {
			t.Fatalf("canonical %s line took the reflective path: %s", probe.K, line)
		}
	}
}

// FuzzDecodeMatchesReflect: for any input, Decode and the reflective
// oracle return deep-equal events and identical error strings.
func FuzzDecodeMatchesReflect(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, data)
	})
}
