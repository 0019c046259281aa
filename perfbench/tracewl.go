package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/hetmem/hetmem/internal/core"
	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/kernels"
	"github.com/hetmem/hetmem/internal/trace"
)

// traceWL is the hmtrace summary/export/diff path: a seeded corpus of
// full-scale captures is recorded in setup, and the timed part takes
// each capture through Decode, Summarize, ExportChrome, Diff against
// the original and Encode, pass after pass until the budget is spent.
type traceWL struct {
	specs  []captureSpec
	corpus []recorded
}

// recorded is one capture of the corpus and its encoding.
type recorded struct {
	name string
	orig *trace.Capture
	enc  []byte
}

func newTraceWL(seed int64) *traceWL { return &traceWL{specs: newCorpus(seed)} }

func (w *traceWL) close() {}

// setup records the corpus.
func (w *traceWL) setup() error {
	w.corpus = w.corpus[:0]
	for _, cs := range w.specs {
		c, err := record(cs)
		if err != nil {
			return err
		}
		w.corpus = append(w.corpus, recorded{name: cs.name(), orig: c, enc: c.Bytes()})
	}
	return nil
}

func (cs captureSpec) name() string {
	if cs.App == "stencil" {
		return fmt.Sprintf("stencil-%dMiB-%v-%s", cs.Size>>20, cs.Mode, cs.Policy)
	}
	return fmt.Sprintf("matmul-g%d-%v-%s", cs.Grid, cs.Mode, cs.Policy)
}

// record runs one corpus entry with a recorder attached.
func record(cs captureSpec) (*trace.Capture, error) {
	opts := fullOptions(cs.Mode)
	opts.Metrics = true // the capture's stats footer reads the metrics
	pol, err := core.ParseEvictPolicy(cs.Policy)
	if err != nil {
		return nil, err
	}
	opts.EvictPolicy = pol
	env := fullEnv(opts)
	defer env.Close()
	rec := trace.NewRecorder(env.MG)
	rec.Attach()
	var app runner
	if cs.App == "stencil" {
		app, err = kernels.NewStencil(env.MG, exp.Full.StencilConfig(cs.Size))
	} else {
		cfg := exp.Full.MatMulConfig(cs.Size)
		cfg.Grid = cs.Grid
		app, err = kernels.NewMatMul(env.MG, cfg)
	}
	if err != nil {
		return nil, err
	}
	if _, err := app.Run(); err != nil {
		return nil, fmt.Errorf("record %s: %w", cs.name(), err)
	}
	return rec.Capture(), nil
}

func (w *traceWL) measure(budget time.Duration, tr *tracer) (*measurement, error) {
	m := newMeasurement()
	var passWalls, lat, diffMs, sumMs []float64
	var decT, encT, expT, bytesN, events, makespan, tasks float64
	start := time.Now()
	var out bytes.Buffer
	for pass := 0; pass < 2 || time.Since(start)+time.Duration(passWalls[len(passWalls)-1]*float64(time.Second)) <= budget; pass++ {
		p0 := time.Now()
		for _, rc := range w.corpus {
			id := fmt.Sprintf("p%d/%s", pass, rc.name)
			t0 := time.Now()
			root := tr.begin("trace.capture", id, -1)
			s := tr.begin("trace.decode", id, root)
			c, err := trace.Decode(bytes.NewReader(rc.enc))
			tr.end(s)
			noteHeap()
			t1 := time.Now()
			s = tr.begin("trace.summarize", id, root)
			smry := trace.Summarize(c)
			tr.end(s)
			noteHeap()
			t2 := time.Now()
			s = tr.begin("trace.export", id, root)
			expErr := trace.ExportChrome(c, io.Discard)
			tr.end(s)
			noteHeap()
			t3 := time.Now()
			s = tr.begin("trace.diff", id, root)
			diff := trace.Diff(rc.orig, c)
			tr.end(s)
			noteHeap()
			t4 := time.Now()
			s = tr.begin("trace.encode", id, root)
			out.Reset()
			encErr := c.Encode(&out)
			tr.end(s)
			tr.end(root)
			t5 := time.Now()

			lat = append(lat, ms(t5.Sub(t0)))
			noteHeap()
			m.attempted++
			if err != nil || expErr != nil || encErr != nil || !diff.Identical || !bytes.Equal(out.Bytes(), rc.enc) {
				m.failed++
				m.notes = append(m.notes, fmt.Sprintf("capture %s: round trip failed (decode %v, export %v, encode %v, identical %v)",
					id, err, expErr, encErr, diff.Identical))
				continue
			}
			decT += t1.Sub(t0).Seconds()
			sumMs = append(sumMs, ms(t2.Sub(t1)))
			expT += t3.Sub(t2).Seconds()
			diffMs = append(diffMs, ms(t4.Sub(t3)))
			encT += t5.Sub(t4).Seconds()
			bytesN += float64(len(rc.enc))
			if pass == 0 {
				events += float64(smry.Events)
				makespan += float64(smry.Makespan)
				m.notes = append(m.notes, fmt.Sprintf("capture %s: %.1f MiB, %d events, %d tasks, makespan %.2f s, %.0f ms",
					rc.name, float64(len(rc.enc))/(1<<20), smry.Events, smry.Tasks, float64(smry.Makespan), lat[len(lat)-1]))
			}
			tasks += float64(smry.Tasks)
		}
		passWalls = append(passWalls, time.Since(p0).Seconds())
	}
	m.wall = median(passWalls)
	m.tasks = tasks
	m.e2e["sim_tasks_per_s"] = tasks / sum(passWalls)
	m.layer["sim_makespan_s"] = makespan
	m.timing(m.layer, "op_p50_ms", "op_tail_ms", lat)
	mb := bytesN / (1 << 20)
	l := m.layer
	l["trace.decode_mb_per_s"] = mb / decT
	l["trace.encode_mb_per_s"] = mb / encT
	l["trace.export_mb_per_s"] = mb / expT
	l["trace.diff_ms"] = median(diffMs)
	l["trace.summarize_ms"] = median(sumMs)
	var corpusBytes float64
	for _, rc := range w.corpus {
		corpusBytes += float64(len(rc.enc))
	}
	l["trace.bytes_per_event"] = corpusBytes / events
	m.notes = append(m.notes, fmt.Sprintf("trace: passes of %.2f s over %d captures, %.1f MiB, %.0f events per pass",
		passWalls, len(w.corpus), corpusBytes/(1<<20), events))
	return m, nil
}
