package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hetmem/hetmem/internal/trace"
)

// post submits spec to the test server and returns the status code and
// decoded body.
func post(t *testing.T, ts *httptest.Server, spec WorkloadSpec) (int, sessionJSON) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body sessionJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp.StatusCode, body
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestHTTPEndToEnd(t *testing.T) {
	srv, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	traced := smallStencil("acme")
	traced.Trace = true
	code, first := post(t, ts, traced)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if first.ID == "" || first.State != "running" {
		t.Fatalf("submit response = %+v, want a running session id", first)
	}
	sh := smallStencil("beta")
	sh.Kernel = "shift"
	code, second := post(t, ts, sh)
	if code != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", code)
	}

	// Metrics of a running session come from the live manager.
	code, raw := get(t, ts, "/v1/sessions/"+first.ID+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("live metrics status = %d: %s", code, raw)
	}

	if err := srv.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}

	// Both sessions report done with valid metrics JSON.
	for _, id := range []string{first.ID, second.ID} {
		code, raw := get(t, ts, "/v1/sessions/"+id)
		if code != http.StatusOK {
			t.Fatalf("get %s = %d", id, code)
		}
		var got sessionJSON
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.State != "done" || got.Makespan <= 0 {
			t.Fatalf("session %s = %+v, want done with positive makespan", id, got)
		}
		code, raw = get(t, ts, "/v1/sessions/"+id+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics %s = %d: %s", id, code, raw)
		}
		var mw metricsWire
		if err := json.Unmarshal(raw, &mw); err != nil {
			t.Fatalf("metrics %s does not decode: %v", id, err)
		}
		if mw.Session != id || mw.Metrics.TasksStaged+mw.Metrics.TasksInline == 0 {
			t.Fatalf("metrics %s = %+v, want completed tasks under the right session", id, mw)
		}
	}

	// The traced session's capture downloads and carries a stats footer.
	code, raw = get(t, ts, "/v1/sessions/"+first.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace download = %d: %s", code, raw)
	}
	cap, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("trace capture does not decode: %v", err)
	}
	if cap.Meta() == nil || cap.Meta().Session != first.ID || cap.Meta().Tenant != "acme" {
		t.Fatalf("capture meta = %+v, want session/tenant identity", cap.Meta())
	}
	if cap.Stats() == nil || cap.Stats().Tasks == 0 {
		t.Fatal("capture has no stats footer after session finish")
	}
	// The untraced session has no capture.
	if code, _ := get(t, ts, "/v1/sessions/"+second.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("untraced trace download = %d, want 404", code)
	}

	// List and stats endpoints.
	code, raw = get(t, ts, "/v1/sessions")
	if code != http.StatusOK || !strings.Contains(string(raw), first.ID) {
		t.Fatalf("list = %d: %s", code, raw)
	}
	code, raw = get(t, ts, "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats does not decode: %v", err)
	}
	if st.Submitted != 2 || st.Completed != 2 || len(st.Tenants) != 2 {
		t.Fatalf("stats = %+v, want 2 submitted, 2 completed, 2 tenants", st)
	}
	code, raw = get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(raw), `"status": "ok"`) {
		t.Fatalf("healthz = %d: %s", code, raw)
	}
}

// TestFinishedSessionDropsSimulation: the terminal transition releases
// the session's engine, app, controller and recorder, yet the finished
// session still serves its metrics and its capture.
func TestFinishedSessionDropsSimulation(t *testing.T) {
	srv, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := smallStencil("acme")
	spec.Trace = true
	spec.Adapt = true
	code, sub := post(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if err := srv.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Scheduler().Session(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sess.State != Done {
		t.Fatalf("session finished %v (%s), want done", sess.State, sess.Err)
	}
	if sess.env != nil || sess.app != nil || sess.ctl != nil || sess.rec != nil {
		t.Fatalf("finished session still holds its simulation: env %v app %v ctl %v rec %v",
			sess.env != nil, sess.app != nil, sess.ctl != nil, sess.rec != nil)
	}
	code, raw := get(t, ts, "/v1/sessions/"+sub.ID+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", code, raw)
	}
	var mw metricsWire
	if err := json.Unmarshal(raw, &mw); err != nil {
		t.Fatalf("metrics do not decode: %v", err)
	}
	if mw.Metrics.TasksStaged+mw.Metrics.TasksInline == 0 {
		t.Fatalf("metrics = %+v, want the completed tasks", mw)
	}
	code, raw = get(t, ts, "/v1/sessions/"+sub.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace download = %d: %s", code, raw)
	}
	c, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("capture does not decode: %v", err)
	}
	if c.Stats() == nil || c.Stats().Tasks == 0 {
		t.Fatal("capture has no stats footer")
	}
}

// TestTraceOfSessionCanceledWhileQueued: a traced session canceled
// before it started recorded nothing, so its trace is not found.
func TestTraceOfSessionCanceledWhileQueued(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []TenantConfig{{Name: "acme", Budget: 256 * mb}}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post(t, ts, smallStencil("acme")) // running: fills the budget
	spec := smallStencil("acme")
	spec.Trace = true
	code, queued := post(t, ts, spec)
	if code != http.StatusAccepted || queued.State != "queued" {
		t.Fatalf("submit = %d %+v, want a queued session", code, queued)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+queued.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", resp.StatusCode)
	}
	if code, raw := get(t, ts, "/v1/sessions/"+queued.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("trace of a never-started session = %d, want 404: %s", code, raw)
	}
}

func TestHTTPErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Tenants = []TenantConfig{{Name: "acme", Budget: 256 * mb}}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Malformed body -> 400.
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit = %d, want 400", resp.StatusCode)
	}
	// Footprint over the tenant budget -> 422.
	over := smallStencil("acme")
	over.Footprint = 512 * mb
	if code, _ := post(t, ts, over); code != http.StatusUnprocessableEntity {
		t.Fatalf("over-budget submit = %d, want 422", code)
	}
	// Unknown session -> 404 on every per-session route.
	for _, path := range []string{"/v1/sessions/s9999", "/v1/sessions/s9999/metrics", "/v1/sessions/s9999/trace"} {
		if code, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
	// Metrics of a queued session -> 409.
	post(t, ts, smallStencil("acme")) // running
	code, queued := post(t, ts, smallStencil("acme"))
	if code != http.StatusAccepted || queued.State != "queued" {
		t.Fatalf("second submit = %d %+v, want a queued session", code, queued)
	}
	if code, _ := get(t, ts, "/v1/sessions/"+queued.ID+"/metrics"); code != http.StatusConflict {
		t.Fatalf("queued metrics = %d, want 409", code)
	}
	// Cancel it, cancel again -> 409; cancel unknown -> 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+queued.ID, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", resp.StatusCode)
	}
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel = %d, want 409", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/s9999", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", resp.StatusCode)
	}
}

func TestDrainGracefulShutdown(t *testing.T) {
	srv, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loopDone := make(chan struct{})
	go func() { srv.Loop(); close(loopDone) }()

	traced := smallStencil("acme")
	traced.Trace = true
	code, sess := post(t, ts, traced)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	code, queuedSess := post(t, ts, smallStencil("acme"))
	if code != http.StatusAccepted {
		t.Fatalf("second submit = %d", code)
	}

	done := srv.Drain()
	// Every session reached a terminal state: running ones completed,
	// still-queued ones were canceled (completion racing the drain is
	// fine either way).
	for _, s := range done {
		if !s.State.Finished() {
			t.Fatalf("session %s left %v after drain", s.ID, s.State)
		}
	}
	var found *Session
	for _, s := range done {
		if s.ID == sess.ID {
			found = s
		}
	}
	if found == nil || found.State != Done {
		t.Fatalf("traced running session not completed by drain: %+v", found)
	}
	_ = queuedSess

	// Submissions during/after drain -> 503, health reports draining.
	if code, _ := post(t, ts, smallStencil("acme")); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", code)
	}
	code, raw := get(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(string(raw), "draining") {
		t.Fatalf("healthz while draining = %d: %s", code, raw)
	}

	// The flushed trace has a valid stats footer.
	code, raw = get(t, ts, "/v1/sessions/"+sess.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace after drain = %d", code)
	}
	cap, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if cap.Stats() == nil {
		t.Fatal("drained capture missing stats footer")
	}

	srv.Close()
	<-loopDone
}

func TestLoopDrivesSubmissions(t *testing.T) {
	srv, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	go srv.Loop()
	defer srv.Close()

	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		code, sess := post(t, ts, smallStencil(fmt.Sprintf("t%d", i)))
		if code != http.StatusAccepted {
			t.Fatalf("submit %d = %d", i, code)
		}
		ids = append(ids, sess.ID)
	}
	// The Loop alone must finish them; poll the HTTP surface.
	for _, id := range ids {
		for tries := 0; ; tries++ {
			_, raw := get(t, ts, "/v1/sessions/"+id)
			var got sessionJSON
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.State == "done" {
				break
			}
			if got.State == "failed" || got.State == "canceled" {
				t.Fatalf("session %s ended %s: %s", id, got.State, got.Error)
			}
			if tries > 10000 {
				t.Fatalf("session %s stuck in %s", id, got.State)
			}
		}
	}
}

func postRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestSubmitBodyChecks: the submit body is bounded (413 past
// MaxSubmitBytes), strict about field names (a misspelt knob is a 400,
// not a silent default) and must hold exactly one object.
func TestSubmitBodyChecks(t *testing.T) {
	srv, err := NewServer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	raw, err := json.Marshal(smallStencil("acme"))
	if err != nil {
		t.Fatal(err)
	}
	good := string(raw)
	for _, tc := range []struct {
		name, body, wantErr string
		want                int
	}{
		{"typo", strings.Replace(good, `"iterations"`, `"iteration"`, 1), `unknown field \"iteration\"`, http.StatusBadRequest},
		{"second object", good + good, "trailing data", http.StatusBadRequest},
		{"trailing garbage", good + " x", "invalid character", http.StatusBadRequest},
		{"oversized", `{"tenant":"` + strings.Repeat("a", MaxSubmitBytes) + `"}`, "too large", http.StatusRequestEntityTooLarge},
		{"oversized tail", good + strings.Repeat(" ", MaxSubmitBytes), "too large", http.StatusRequestEntityTooLarge},
		{"trailing newline", good + "\n", "", http.StatusAccepted},
	} {
		code, body := postRaw(t, ts, tc.body)
		if code != tc.want || !strings.Contains(body, tc.wantErr) {
			t.Errorf("%s: status %d body %.200s, want %d containing %q", tc.name, code, body, tc.want, tc.wantErr)
		}
	}
	if n := len(srv.Scheduler().Sessions()); n != 1 {
		t.Fatalf("%d sessions submitted, want only the well-formed one", n)
	}
}
