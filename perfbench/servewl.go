package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/hetmem/hetmem/internal/exp"
	"github.com/hetmem/hetmem/internal/serve"
	"github.com/hetmem/hetmem/internal/trace"
)

// serveWL runs hetmemd in-process the way cmd/hetmemd runs it:
// serve.NewServer, Loop in a goroutine, and an HTTP server on a real
// loopback listener. One client process drives it with one generator
// (this goroutine) and one status poller, each on its own connection.
type serveWL struct {
	seed int64
	d    *daemon
}

// clientGoroutines is the client's goroutine count: the generator and
// the poller. It must not exceed nproc.
const clientGoroutines = 2

// pollEvery is the poller's period while nothing blocks it.
const pollEvery = 5 * time.Millisecond

func newServe(seed int64) (*serveWL, error) {
	if n := runtime.NumCPU(); n < clientGoroutines {
		return nil, fmt.Errorf("serve needs %d CPUs for its client, host has %d", clientGoroutines, n)
	}
	return &serveWL{seed: seed}, nil
}

// daemon is one running hetmemd instance.
type daemon struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	loopDone chan struct{}
	httpDone chan struct{}
}

func startDaemon(auditOn bool) (*daemon, error) {
	grantable := exp.Full.Machine().HBMCap - exp.Full.HBMReserve()
	cfg := serve.Config{
		Spec:    exp.Full.Machine(),
		NumPEs:  exp.Full.NumPEs(),
		Reserve: exp.Full.HBMReserve(),
		Fair:    true,
		Audit:   auditOn,
	}
	for _, t := range serveTenants {
		cfg.Tenants = append(cfg.Tenants, serve.TenantConfig{Name: t.Name, Budget: grantable / int64(len(serveTenants)), Weight: t.Weight})
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		loopDone: make(chan struct{}), httpDone: make(chan struct{})}
	go func() { srv.Loop(); close(d.loopDone) }()
	go func() { _ = d.hs.Serve(ln); close(d.httpDone) }() // Serve returns ErrServerClosed on stop
	return d, nil
}

// stop closes the listener and connections, stops the Loop, and waits
// for both goroutines to exit.
func (d *daemon) stop() {
	_ = d.hs.Close() // a close error leaves nothing to release
	d.srv.Close()
	<-d.loopDone
	<-d.httpDone
}

func (w *serveWL) close() {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

// setup starts a fresh daemon and runs one session through it, so the
// first timed request meets a warm server.
func (w *serveWL) setup() error {
	return w.restart(false)
}

func (w *serveWL) restart(auditOn bool) error {
	w.close()
	d, err := startDaemon(auditOn)
	if err != nil {
		return err
	}
	w.d = d
	c := newClient(d.base)
	defer c.closeIdle()
	id, code, err := c.submit(c.gen, serveSpec("alpha", "stencil", "multi", false))
	if err != nil || code != http.StatusAccepted {
		return fmt.Errorf("warm-up submit: status %d: %v", code, err)
	}
	for {
		st, err := c.session(c.gen, id)
		if err != nil {
			return err
		}
		if st.State != "queued" && st.State != "running" {
			if st.State != "done" {
				return fmt.Errorf("warm-up session ended %s", st.State)
			}
			return nil
		}
		time.Sleep(pollEvery)
	}
}

// client is the load generator's HTTP side: one connection per
// goroutine, counted as dialed.
type client struct {
	base      string
	gen, poll *http.Client
	dials     atomic.Int64
	// running counts sessions from the moment their submit is sent
	// until the poller sees them finish; a poll sent while it is
	// positive counts as busy.
	running atomic.Int64
}

func newClient(base string) *client {
	c := &client{base: base}
	mk := func() *http.Client {
		var d net.Dialer
		return &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}}
	}
	c.gen, c.poll = mk(), mk()
	return c
}

func (c *client) closeIdle() {
	c.gen.CloseIdleConnections()
	c.poll.CloseIdleConnections()
}

// sessionWire is the part of a session record the client reads.
type sessionWire struct {
	ID       string  `json:"id"`
	State    string  `json:"state"`
	Error    string  `json:"error"`
	Makespan float64 `json:"makespan_s"`
}

func (c *client) submit(hc *http.Client, spec serve.WorkloadSpec) (string, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	resp, err := hc.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var s sessionWire
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s.ID, resp.StatusCode, err
}

func (c *client) getJSON(hc *http.Client, path string, v any) error {
	resp, err := hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) session(hc *http.Client, id string) (sessionWire, error) {
	var s sessionWire
	err := c.getJSON(hc, "/v1/sessions/"+id, &s)
	return s, err
}

// statsWire is the part of /v1/stats the client reads.
type statsWire struct {
	Virtual  float64 `json:"virtual_now_s"`
	Windows  int64   `json:"windows"`
	Queued   int     `json:"queued"`
	Running  int     `json:"running"`
	Rejected int64   `json:"rejected"`
}

// sub is one accepted submission handed from the generator to the
// poller; a nil *sub is a phase barrier.
type sub struct {
	id     string
	phase  string
	due    time.Time
	traced bool
}

// seen is what the poller learned about one finished session.
type seen struct {
	sub
	latency  float64 // ms from due time to the client seeing it finish
	state    string
	makespan float64
}

// pollResult is the poller's side of a measurement.
type pollResult struct {
	done                 []seen
	busy, idle           []float64 // poll round trips, ms
	downloads            []float64 // trace download round trips, ms
	badDownloads         int64
	queueMax, runningMax int
	pollErrs             int64
}

// poller polls /v1/stats and every outstanding session until each is
// seen finished, downloading captures of traced sessions. A barrier
// on subs is acknowledged on acks once nothing is outstanding; the
// poller returns when subs is closed.
func (c *client) poller(subs <-chan *sub, acks chan<- struct{}, tr *tracer, res *pollResult) {
	var out []*sub
	barrier, closed := false, false
	for {
		if barrier && len(out) == 0 {
			acks <- struct{}{}
			barrier = false
		}
		if closed && len(out) == 0 {
			return
		}
		if len(out) == 0 && !closed {
			// Nothing outstanding: wait for work, polling /v1/stats
			// idle every pollEvery.
			select {
			case s, ok := <-subs:
				if !ok {
					closed = true
				} else if s == nil {
					barrier = true
				} else {
					out = append(out, s)
				}
				continue
			case <-time.After(pollEvery):
			}
		}
	drain:
		for !closed {
			select {
			case s, ok := <-subs:
				switch {
				case !ok:
					closed = true
				case s == nil:
					barrier = true
				default:
					out = append(out, s)
				}
			default:
				break drain
			}
		}
		busy := c.running.Load() > 0
		t0 := time.Now()
		sp := tr.begin("http.poll", "stats", -1)
		var st statsWire
		err := c.getJSON(c.poll, "/v1/stats", &st)
		tr.end(sp)
		d := ms(time.Since(t0))
		if err != nil {
			res.pollErrs++
		} else {
			res.queueMax = max(res.queueMax, st.Queued)
			res.runningMax = max(res.runningMax, st.Running)
		}
		if busy {
			res.busy = append(res.busy, d)
		} else {
			res.idle = append(res.idle, d)
		}
		kept := out[:0]
		for _, s := range out {
			t0 := time.Now()
			sp := tr.begin("http.poll", s.id, -1)
			sw, err := c.session(c.poll, s.id)
			tr.end(sp)
			res.busy = append(res.busy, ms(time.Since(t0)))
			if err != nil {
				sw.State = "unreadable: " + err.Error()
			}
			if sw.State == "queued" || sw.State == "running" {
				kept = append(kept, s)
				continue
			}
			res.done = append(res.done, seen{sub: *s, latency: ms(time.Since(s.due)), state: sw.State, makespan: sw.Makespan})
			noteHeap()
			c.running.Add(-1)
			if s.traced {
				c.download(s.id, tr, res)
			}
		}
		out = kept
		if len(out) > 0 {
			time.Sleep(pollEvery)
		}
	}
}

// download fetches a finished traced session's capture and checks that
// it decodes.
func (c *client) download(id string, tr *tracer, res *pollResult) {
	t0 := time.Now()
	sp := tr.begin("serve.trace_download", id, -1)
	resp, err := c.poll.Get(c.base + "/v1/sessions/" + id + "/trace")
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	tr.end(sp)
	res.downloads = append(res.downloads, ms(time.Since(t0)))
	if err == nil {
		_, err = trace.Decode(bytes.NewReader(body))
	}
	if err != nil {
		res.badDownloads++
	}
}

// measure runs four phases against the daemon: a closed batch, each
// session submitted once the client has seen the previous one finish;
// open-loop Poisson arrivals at the low and then the high rate; and a
// saturating batch, each session submitted as soon as the API accepts
// the previous one. The closed batch is the unit of work behind the
// end-to-end metrics: its sessions never wait on each other, so it
// times the daemon's own per-session path. It runs first, before the
// sessions the daemon retains pile up on its heap.
func (w *serveWL) measure(budget time.Duration, tr *tracer) (*measurement, error) {
	if tr != nil {
		// The traced run audits every session.
		if err := w.restart(true); err != nil {
			return nil, err
		}
	}
	sec := budget.Seconds()
	plan := newServePlan(w.seed, int(serveLowRate*0.4*sec+0.5), int(serveHighRate*0.2*sec+0.5), max(1, int(sec/2.25+0.5)))
	c := newClient(w.d.base)
	defer c.closeIdle()
	m := newMeasurement()

	// The buffer holds every submission and barrier of the run, so the
	// generator never blocks on the poller.
	subs := make(chan *sub, len(plan.Low)+len(plan.High)+len(plan.Batch)+3*len(plan.Closed)+3)
	acks := make(chan struct{})
	var pr pollResult
	pollDone := make(chan struct{})
	go func() { c.poller(subs, acks, tr, &pr); close(pollDone) }()
	stopped := false
	stopPoller := func() {
		if !stopped {
			stopped = true
			close(subs)
			<-pollDone
		}
	}
	defer stopPoller()

	var lag, submitDue, submitRTT []float64
	var ids []string
	accept := func(phase string, spec serve.WorkloadSpec, due time.Time) {
		c.running.Add(1)
		sent := time.Now()
		sp := tr.begin("http.submit", phase, -1)
		id, code, err := c.submit(c.gen, spec)
		tr.end(sp)
		got := time.Now()
		noteHeap()
		m.attempted++
		submitRTT = append(submitRTT, ms(got.Sub(sent)))
		if phase == "high" {
			submitDue = append(submitDue, ms(got.Sub(due)))
		}
		if err != nil || code != http.StatusAccepted {
			c.running.Add(-1)
			m.failed++
			m.notes = append(m.notes, fmt.Sprintf("submit in %s: status %d: %v", phase, code, err))
			return
		}
		ids = append(ids, id)
		subs <- &sub{id: id, phase: phase, due: due, traced: spec.Trace}
	}
	barrier := func() {
		subs <- nil
		<-acks
	}
	// st holds /v1/stats before the closed batch, after it, after the
	// open-loop phases and after the saturating batch.
	var st [4]statsWire
	if err := c.getJSON(c.gen, "/v1/stats", &st[0]); err != nil {
		return nil, err
	}
	closedStart := time.Now()
	for _, spec := range plan.Closed {
		accept("closed", spec, time.Now())
		barrier()
	}
	closedWall := time.Since(closedStart).Seconds()
	if err := c.getJSON(c.gen, "/v1/stats", &st[1]); err != nil {
		return nil, err
	}
	for _, ph := range []struct {
		name     string
		arrivals []arrival
	}{{"low", plan.Low}, {"high", plan.High}} {
		start := time.Now()
		for _, a := range ph.arrivals {
			due := start.Add(a.At)
			time.Sleep(time.Until(due))
			lag = append(lag, ms(time.Since(due)))
			accept(ph.name, a.Spec, due)
		}
		barrier()
	}
	if err := c.getJSON(c.gen, "/v1/stats", &st[2]); err != nil {
		return nil, err
	}
	batchStart := time.Now()
	for _, spec := range plan.Batch {
		accept("batch", spec, time.Now())
	}
	barrier()
	batchWall := time.Since(batchStart).Seconds()
	stopPoller()
	if err := c.getJSON(c.gen, "/v1/stats", &st[3]); err != nil {
		return nil, err
	}

	byPhase := map[string][]float64{}
	phaseOf := map[string]string{}
	makespan := map[string]float64{}
	for _, s := range pr.done {
		m.attempted++
		if s.state != "done" {
			m.failed++
			m.notes = append(m.notes, fmt.Sprintf("session %s ended %s", s.id, s.state))
		}
		byPhase[s.phase] = append(byPhase[s.phase], s.latency)
		phaseOf[s.id] = s.phase
		makespan[s.phase] += s.makespan
	}
	m.attempted += int64(len(pr.downloads) + len(pr.busy) + len(pr.idle))
	m.failed += pr.badDownloads + pr.pollErrs

	// Untimed: per-session counters (tasks; audit violations when
	// traced) from the metrics endpoint.
	tasks := map[string]float64{}
	for _, id := range ids {
		var mw struct {
			Metrics struct {
				TasksStaged    int64 `json:"tasks_staged"`
				TasksInline    int64 `json:"tasks_inline"`
				ViolationCount int64 `json:"violation_count"`
			} `json:"metrics"`
		}
		if err := c.getJSON(c.gen, "/v1/sessions/"+id+"/metrics", &mw); err != nil {
			return nil, err
		}
		n := float64(mw.Metrics.TasksStaged + mw.Metrics.TasksInline)
		tasks[phaseOf[id]] += n
		m.tasks += n
		if tr != nil {
			m.attempted++
			if mw.Metrics.ViolationCount != 0 {
				m.failed++
				m.notes = append(m.notes, fmt.Sprintf("session %s: %d audit violations", id, mw.Metrics.ViolationCount))
			}
		}
	}

	m.wall = closedWall
	m.e2e["sim_tasks_per_s"] = tasks["closed"] / closedWall
	m.timing(m.layer, "op_p50_ms", "op_tail_ms", byPhase["closed"])
	l := m.layer
	l["sim_makespan_s"] = makespan["closed"]
	m.timing(l, "session_p50_ms.low", "session_tail_ms.low", byPhase["low"])
	m.timing(l, "session_p50_ms.high", "session_tail_ms.high", byPhase["high"])
	m.timing(l, "submit_p50_ms.high", "submit_tail_ms.high", submitDue)
	m.timing(l, "http.submit_p50_ms", "http.submit_tail_ms", submitRTT)
	m.timing(l, "http.poll_busy_p50_ms", "http.poll_busy_tail_ms", pr.busy)
	m.timing(l, "http.poll_idle_p50_ms", "http.poll_idle_tail_ms", pr.idle)
	m.timing(l, "load.lag_p50_ms", "load.lag_tail_ms", lag)
	l["sessions_per_s"] = float64(len(plan.Batch)) / batchWall
	l["serve.trace_download_ms"] = median(pr.downloads)
	l["serve.windows"] = float64(st[3].Windows)
	if dw := st[1].Windows - st[0].Windows; dw > 0 {
		l["serve.ms_per_window"] = closedWall * 1e3 / float64(dw)
	}
	l["serve.queue_depth_max"] = float64(pr.queueMax)
	l["serve.rejected"] = float64(st[3].Rejected)
	l["charm.tasks"] = m.tasks
	m.notes = append(m.notes,
		fmt.Sprintf("serve: %d low + %d high + %d batch + %d closed sessions, %d connections dialed, %d captures downloaded",
			len(plan.Low), len(plan.High), len(plan.Batch), len(plan.Closed), c.dials.Load(), len(pr.downloads)),
		fmt.Sprintf("serve batch: %.2f s, %d windows, %.3f virtual s, at most %d sessions seen running at once",
			batchWall, st[3].Windows-st[2].Windows, st[3].Virtual-st[2].Virtual, pr.runningMax))
	if n := c.dials.Load(); n > clientGoroutines {
		return nil, errors.New("client dialed more connections than it has goroutines")
	}
	return m, nil
}
