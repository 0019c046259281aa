package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/hetmem/hetmem/internal/audit"
)

// Server is the HTTP/JSON front end over one Scheduler. All access to
// the scheduler — handlers and the drive loop alike — is serialised
// behind mu, so the deterministic single-threaded core never sees
// concurrency. Handlers use no wall clock and render every collection
// in id or registration order, so responses are deterministic for a
// fixed submission sequence.
type Server struct {
	mu    sync.Mutex
	cond  *sync.Cond
	sched *Scheduler

	draining bool
	closed   bool
	looping  bool

	mux *http.ServeMux
}

// NewServer builds a server (and its scheduler) from the config.
func NewServer(cfg Config) (*Server, error) {
	sched, err := NewScheduler(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{sched: sched}
	s.cond = sync.NewCond(&s.mu)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sessions/{id}/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/sessions/{id}/trace", s.handleTrace)
	return s, nil
}

// Handler returns the HTTP handler (for httptest or net/http).
func (s *Server) Handler() http.Handler { return s.mux }

// Scheduler exposes the underlying scheduler for in-process drivers
// (experiments, tests). Callers must not race it with a running Loop;
// use Step for locked stepping.
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Step advances one window under the server lock.
func (s *Server) Step() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Step()
}

// RunUntilIdle steps under the lock until idle.
func (s *Server) RunUntilIdle(maxWindows int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.RunUntilIdle(maxWindows)
}

// Loop is the daemon driver: it steps whenever sessions are active and
// parks on the condvar otherwise, so virtual time is frozen while the
// service is idle. It returns once Close is called, or once a drain
// completes with nothing left to run.
func (s *Server) Loop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.looping = true
	defer func() {
		s.looping = false
		s.cond.Broadcast()
	}()
	for {
		for !s.closed && !s.sched.Active() && !s.draining {
			s.cond.Wait()
		}
		if s.closed {
			return
		}
		if !s.sched.Active() {
			// Draining and idle: the drain is complete.
			s.cond.Broadcast()
			return
		}
		s.sched.Step()
		if s.draining && !s.sched.Active() {
			s.cond.Broadcast()
			return
		}
	}
}

// Drain starts a graceful shutdown: new submissions get 503, queued
// sessions are canceled, running sessions keep stepping until done.
// It blocks until the service is idle, then finishes every open trace
// capture (the recorder writes its stats footer) and returns the
// terminal sessions.
func (s *Server) Drain() []*Session {
	s.mu.Lock()
	s.draining = true
	s.sched.DrainQueue("shutdown")
	s.cond.Broadcast()
	for s.looping && s.sched.Active() && !s.closed {
		s.cond.Wait()
	}
	// With no Loop driving (in-process use), run the remaining
	// sessions down inline.
	if s.sched.Active() && !s.closed {
		_ = s.sched.RunUntilIdle(0)
	}
	for _, sess := range s.sched.Sessions() {
		if sess.rec != nil {
			sess.rec.Finish()
		}
	}
	out := s.sched.Sessions()
	s.mu.Unlock()
	return out
}

// Close stops the Loop without draining (tests).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Draining reports drain state (for tests).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// sessionJSON is the wire form of a session record.
type sessionJSON struct {
	ID        string  `json:"id"`
	Tenant    string  `json:"tenant"`
	Kernel    string  `json:"kernel"`
	State     string  `json:"state"`
	Error     string  `json:"error,omitempty"`
	Footprint int64   `json:"footprint"`
	Arrival   float64 `json:"arrival_s"`
	Started   float64 `json:"started_s"`
	Finished  float64 `json:"finished_s"`
	Makespan  float64 `json:"makespan_s"`
}

func sessionWire(sess *Session) sessionJSON {
	return sessionJSON{
		ID:        sess.ID,
		Tenant:    sess.Tenant,
		Kernel:    sess.Spec.Kernel,
		State:     sess.State.String(),
		Error:     sess.Err,
		Footprint: sess.Footprint,
		Arrival:   float64(sess.Arrival),
		Started:   float64(sess.Started),
		Finished:  float64(sess.Finished),
		Makespan:  float64(sess.Makespan()),
	}
}

// writeJSON emits one JSON body with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the uniform error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	body := map[string]any{
		"status":        status,
		"virtual_now_s": float64(s.sched.Now()),
		"queued":        len(s.sched.queue),
		"running":       len(s.sched.running),
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.sched.StatsSnapshot()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec WorkloadSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad submission body: %w", err))
		return
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	sess, err := s.sched.Submit(spec)
	if err == nil {
		s.cond.Broadcast() // wake the Loop for the new work
	}
	s.mu.Unlock()
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrOverBudget):
			writeError(w, http.StatusUnprocessableEntity, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.mu.Lock()
	body := sessionWire(sess)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, body)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := s.sched.Sessions()
	out := make([]sessionJSON, 0, len(all))
	for _, sess := range all {
		out = append(out, sessionWire(sess))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

// withSession resolves {id} and runs fn under the lock.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request, fn func(*Session) (int, any)) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, err := s.sched.Session(id)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, err)
		return
	}
	status, body := fn(sess)
	s.mu.Unlock()
	if err, ok := body.(error); ok {
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, body)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *Session) (int, any) {
		return http.StatusOK, sessionWire(sess)
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, err := s.sched.Cancel(id, "client cancel")
	s.mu.Unlock()
	if err != nil {
		if errors.Is(err, ErrUnknownSession) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusConflict, err)
		return
	}
	s.mu.Lock()
	body := sessionWire(sess)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(sess *Session) (int, any) {
		snap, ok := sess.MetricsSnapshot()
		if !ok {
			return http.StatusConflict, fmt.Errorf("serve: session %s has no metrics yet (state %s)", sess.ID, sess.State)
		}
		snap.Label = sess.ID
		return http.StatusOK, metricsWire{Session: sess.ID, Tenant: sess.Tenant, Metrics: snap}
	})
}

// metricsWire wraps an audit snapshot with its session identity.
type metricsWire struct {
	Session string         `json:"session"`
	Tenant  string         `json:"tenant"`
	Metrics audit.Snapshot `json:"metrics"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, err := s.sched.Session(id)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !sess.Spec.Trace {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: session %s was not submitted with trace", id))
		return
	}
	if !sess.State.Finished() {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, fmt.Errorf("serve: session %s still %s; trace downloads after finish", id, sess.State))
		return
	}
	c := sess.TraceCapture()
	if c == nil {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: session %s %s before it started; nothing was recorded", id, sess.State))
		return
	}
	body := c.Bytes()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", strings.ReplaceAll(id, `"`, "")+".jsonl"))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
