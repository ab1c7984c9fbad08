package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aptrace/internal/audit"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
	"aptrace/internal/workload"
)

func dataset(t testing.TB) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Config{Seed: 9, Hosts: 4, Days: 3, Density: 0.4}, simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// auditWire exports the dataset in auditd line format — what the ingest
// endpoint consumes.
func auditWire(t testing.TB, ds *workload.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := audit.Export(ds.Store, &buf, audit.FormatAuditd); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func simClock() simclock.Clock { return simclock.NewSimulated(time.Time{}) }

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	event string
	data  string
}

// readSSE parses frames off an SSE stream until it ends or limit frames
// arrive (limit <= 0: read to EOF).
func readSSE(t testing.TB, r *bufio.Reader, limit int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for {
		line, err := r.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.event != "":
			frames = append(frames, cur)
			cur = sseFrame{}
			if limit > 0 && len(frames) >= limit {
				return frames
			}
		}
		if err != nil {
			return frames
		}
	}
}

func postJSON(t testing.TB, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t testing.TB, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %s: %v", resp.Request.URL, err)
	}
	return v
}

// TestEndToEndTriage drives the whole daemon flow over HTTP: ingest the
// audit wire into the live store, run a detection pass, let the
// auto-launched backtracking sessions finish, then read every API surface —
// list, summary, SSE updates, explain, timeline, alerts, healthz, metrics.
func TestEndToEndTriage(t *testing.T) {
	ds := dataset(t)
	reg := telemetry.NewRegistry()
	live, err := store.OpenLive(t.TempDir(), nil, store.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	srv, err := New(Config{
		Live:          live,
		AutoBacktrack: true,
		AutoHops:      8,
		Quota:         Quota{MaxActive: 8, MaxQueued: 32},
		QueueCap:      64,
		Telemetry:     reg,
		ViewClock:     simClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ingest the full audit wire over HTTP.
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/x-ndjson",
		bytes.NewReader(auditWire(t, ds)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	stats := decodeBody[audit.IngestStats](t, resp)
	if stats.Ingested < 1000 {
		t.Fatalf("suspiciously few records ingested: %+v", stats)
	}
	if stats.Rejected != 0 {
		t.Fatalf("clean wire rejected records: %+v", stats)
	}

	// One detection pass over the new tail: alerts recorded, auto-runs
	// launched.
	n, err := srv.DetectNow()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no alerts on a dataset with injected attacks")
	}
	alerts := srv.Alerts()
	if len(alerts) != n {
		t.Fatalf("Alerts() = %d, DetectNow reported %d", len(alerts), n)
	}
	autoLaunched := 0
	for _, a := range alerts {
		if a.SessionID != "" {
			autoLaunched++
		}
	}
	if autoLaunched == 0 {
		t.Fatal("no alert auto-launched a session")
	}

	// A second pass scans only the (empty) new tail: incremental, no dups.
	n2, err := srv.DetectNow()
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("re-scan of an unchanged tail found %d alerts", n2)
	}

	// Wait for every auto-run; at least one must build a graph.
	runs := srv.Manager().Runs()
	if len(runs) == 0 {
		t.Fatal("no runs tracked")
	}
	edges := 0
	for _, run := range runs {
		sum := run.Wait()
		if sum.State == "failed" {
			t.Fatalf("auto-run %s failed: %s (script %q)", sum.ID, sum.Error, sum.Script)
		}
		edges += sum.Edges
	}
	if edges == 0 {
		t.Fatal("no auto-run produced graph edges")
	}

	// List + single-session summary.
	list := decodeBody[map[string][]Summary](t, mustGet(t, ts.URL+"/api/v1/sessions"))
	if len(list["sessions"]) != len(runs) {
		t.Fatalf("listed %d sessions, manager tracks %d", len(list["sessions"]), len(runs))
	}
	first := list["sessions"][0]
	got := decodeBody[Summary](t, mustGet(t, ts.URL+"/api/v1/sessions/"+first.ID))
	if got.ID != first.ID || got.State != "done" {
		t.Fatalf("session summary = %+v", got)
	}

	// SSE on a finished run: the backlog replays, then one done frame with
	// zero drops (nothing was live-streamed past this subscriber).
	var streamed Summary
	for _, s := range list["sessions"] {
		if s.Updates > 0 {
			streamed = s
			break
		}
	}
	if streamed.ID == "" {
		t.Fatal("no session recorded updates")
	}
	sresp := mustGet(t, ts.URL+"/api/v1/sessions/"+streamed.ID+"/updates")
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("updates Content-Type = %q", ct)
	}
	frames := readSSE(t, bufio.NewReader(sresp.Body), 0)
	sresp.Body.Close()
	if len(frames) != streamed.Updates+1 {
		t.Fatalf("got %d SSE frames, want %d updates + done", len(frames), streamed.Updates)
	}
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("terminal frame event = %q", last.event)
	}
	var done doneEvent
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.State != "done" || done.DroppedUpdates != 0 {
		t.Fatalf("done frame = %+v", done)
	}
	var upd updateEvent
	if err := json.Unmarshal([]byte(frames[0].data), &upd); err != nil {
		t.Fatal(err)
	}
	if upd.Seq != 1 || upd.EventID == 0 {
		t.Fatalf("first update frame = %+v", upd)
	}

	// Explain and timeline are valid JSON per session.
	var explainBody struct {
		Records []json.RawMessage `json:"records"`
	}
	eresp := mustGet(t, ts.URL+"/api/v1/sessions/"+streamed.ID+"/explain")
	if err := json.NewDecoder(eresp.Body).Decode(&explainBody); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	tresp := mustGet(t, ts.URL+"/api/v1/sessions/"+streamed.ID+"/timeline")
	var trace any
	if err := json.NewDecoder(tresp.Body).Decode(&trace); err != nil {
		t.Fatalf("timeline is not JSON: %v", err)
	}
	tresp.Body.Close()

	// Alerts endpoint mirrors the recorded alerts.
	al := decodeBody[map[string][]AlertRecord](t, mustGet(t, ts.URL+"/api/v1/alerts"))
	if len(al["alerts"]) != len(alerts) {
		t.Fatalf("alerts endpoint returned %d, want %d", len(al["alerts"]), len(alerts))
	}

	// Healthz reflects the store and session counts.
	hz := decodeBody[healthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if hz.Status != "ok" || hz.Events == 0 || hz.Sessions != len(runs) {
		t.Fatalf("healthz = %+v", hz)
	}

	// The registry surface is mounted and carries the serve metrics.
	mresp := mustGet(t, ts.URL+"/metrics")
	var mbuf bytes.Buffer
	mbuf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, metric := range []string{
		telemetry.MetricServeSessions,
		telemetry.MetricServeAlerts,
		telemetry.MetricIngestRecords,
	} {
		if !strings.Contains(mbuf.String(), metric) {
			t.Fatalf("/metrics missing %s", metric)
		}
	}
	if c := reg.Counter(telemetry.MetricServeAutoRuns).Value(); c != int64(autoLaunched) {
		t.Fatalf("auto-run counter = %d, want %d", c, autoLaunched)
	}
}

func mustGet(t testing.TB, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return resp
}

// TestSubmitValidation covers the 400/404 edges of the API.
func TestSubmitValidation(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{Source: StaticSource(ds.Store), ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/api/v1/sessions", submitRequest{Script: "backward nonsense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad script status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSON(t, ts.URL+"/api/v1/sessions", submitRequest{
		Script: ds.Attacks[0].Scripts[0], EventID: 1 << 60,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown event status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	for _, path := range []string{"/api/v1/sessions/s-999", "/api/v1/sessions/s-999/updates",
		"/api/v1/sessions/s-999/explain", "/api/v1/sessions/s-999/timeline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// gate blocks each run inside the manager's execute step (via the ViewClock
// hook, which execute calls before building the session), making admission
// states deterministic: a test knows exactly when a worker holds a run.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gate) clock() simclock.Clock {
	g.entered <- struct{}{}
	<-g.release
	return simclock.NewSimulated(time.Time{})
}

// TestAdmissionControl429 fills one tenant's quota and asserts the API
// answers 429 with a Retry-After hint while another tenant is still
// admitted.
func TestAdmissionControl429(t *testing.T) {
	ds := dataset(t)
	g := newGate()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{
		Source:    StaticSource(ds.Store),
		Workers:   1,
		QueueCap:  8,
		Quota:     Quota{MaxActive: 1, MaxQueued: 1},
		Telemetry: reg,
		ViewClock: g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	script := ds.Attacks[0].Scripts[0]
	submit := func(tenant string) *http.Response {
		return postJSON(t, ts.URL+"/api/v1/sessions", submitRequest{Tenant: tenant, Script: script})
	}

	// First run: admitted, and the worker is now holding it at the gate.
	resp := submit("analyst")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d", resp.StatusCode)
	}
	resp.Body.Close()
	<-g.entered

	// Second run: fills the tenant's queued slot.
	resp = submit("analyst")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Third run: the tenant is saturated -> 429 + Retry-After.
	resp = submit("analyst")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}
	body := decodeBody[errorResponse](t, resp)
	if body.RetryAfter != 2 || body.Error == "" {
		t.Fatalf("429 body = %+v", body)
	}
	if c := reg.Counter(telemetry.MetricServeSessionsRejected).Value(); c != 1 {
		t.Fatalf("rejected counter = %d", c)
	}

	// A different tenant is unaffected by analyst's saturation.
	resp = submit("other")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant submit = %d", resp.StatusCode)
	}
	resp.Body.Close()

	close(g.release)
	for _, run := range srv.Manager().Runs() {
		if sum := run.Wait(); sum.State != "done" {
			t.Fatalf("run %s ended %s: %s", sum.ID, sum.State, sum.Error)
		}
	}
	if a, q, total := srv.Manager().Counts(); a != 0 || q != 0 || total != 3 {
		t.Fatalf("counts after drain-down = (%d active, %d queued, %d total)", a, q, total)
	}
	if v := reg.Gauge(telemetry.MetricServeSessionsActive).Value(); v != 0 {
		t.Fatalf("active gauge = %d after all runs finished", v)
	}
}

// TestGlobalQueueBackstop saturates the fleet queue across tenants: the
// per-tenant quota admits, but the bounded global queue rejects — and the
// admission is rolled back.
func TestGlobalQueueBackstop(t *testing.T) {
	ds := dataset(t)
	g := newGate()
	srv, err := New(Config{
		Source:    StaticSource(ds.Store),
		Workers:   1,
		QueueCap:  1,
		Quota:     Quota{MaxActive: 100, MaxQueued: 100},
		ViewClock: g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	script := ds.Attacks[0].Scripts[0]
	mgr := srv.Manager()

	if _, err := mgr.Submit("t1", script, nil, false, ""); err != nil {
		t.Fatal(err)
	}
	<-g.entered // worker holds run 1; the queue is empty again
	if _, err := mgr.Submit("t2", script, nil, false, ""); err != nil {
		t.Fatal(err) // occupies the single queue slot
	}
	_, err = mgr.Submit("t3", script, nil, false, "")
	if err == nil {
		t.Fatal("third submit should hit the global queue backstop")
	}
	if !strings.Contains(err.Error(), "global queue full") {
		t.Fatalf("err = %v", err)
	}
	// The rejected run was rolled back, not leaked into the tracked set.
	if _, _, total := mgr.Counts(); total != 2 {
		t.Fatalf("tracked %d runs, want 2", total)
	}

	close(g.release)
	for _, run := range mgr.Runs() {
		if sum := run.Wait(); sum.State != "done" {
			t.Fatalf("run %s ended %s: %s", sum.ID, sum.State, sum.Error)
		}
	}
}

// TestDrainProtocol exercises graceful shutdown: active runs finish, queued
// runs abort with their update streams closed, new submissions get 503, and
// the report says clean.
func TestDrainProtocol(t *testing.T) {
	ds := dataset(t)
	live, err := store.OpenLive(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if _, err := audit.IngestLive(live, bytes.NewReader(auditWire(t, ds))); err != nil {
		t.Fatal(err)
	}

	g := newGate()
	srv, err := New(Config{
		Live:      live,
		Workers:   1,
		QueueCap:  8,
		Quota:     Quota{MaxActive: 4, MaxQueued: 4},
		ViewClock: g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	script := ds.Attacks[0].Scripts[0]
	runA, err := srv.Manager().Submit("ops", script, nil, false, "")
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered // the worker holds runA
	runB, err := srv.Manager().Submit("ops", script, nil, false, "")
	if err != nil {
		t.Fatal(err) // queued behind runA
	}

	repc := make(chan DrainReport, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		repc <- srv.Drain(ctx)
	}()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(g.release) // let runA proceed; runB must now abort

	rep := <-repc
	if !rep.Clean {
		t.Fatalf("drain not clean: %+v", rep)
	}
	if rep.Aborted != 1 {
		t.Fatalf("drain aborted %d runs, want 1: %+v", rep.Aborted, rep)
	}
	if st := runA.State(); st != RunDone {
		t.Fatalf("runA state = %s", st)
	}
	if st := runB.State(); st != RunAborted {
		t.Fatalf("runB state = %s", st)
	}

	// The aborted run's stream is closed: SSE returns an immediate done
	// frame carrying the aborted state.
	resp := mustGet(t, ts.URL+"/api/v1/sessions/"+runB.ID+"/updates")
	frames := readSSE(t, bufio.NewReader(resp.Body), 0)
	resp.Body.Close()
	if len(frames) != 1 || frames[0].event != "done" {
		t.Fatalf("aborted run frames = %+v", frames)
	}
	var done doneEvent
	if err := json.Unmarshal([]byte(frames[0].data), &done); err != nil {
		t.Fatal(err)
	}
	if done.State != "aborted" {
		t.Fatalf("aborted run done frame state = %q", done.State)
	}

	// Draining refuses new work at the API (503) and in the manager.
	resp = postJSON(t, ts.URL+"/api/v1/sessions", submitRequest{Script: script})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	hz := decodeBody[healthResponse](t, mustGet(t, ts.URL+"/healthz"))
	if hz.Status != "draining" {
		t.Fatalf("healthz status = %q", hz.Status)
	}
}

// TestScriptForEvent checks the auto-backtrack script builder emits valid,
// compilable BDL for every object kind in the dataset.
func TestScriptForEvent(t *testing.T) {
	ds := dataset(t)
	kinds := map[event.ObjectType]bool{}
	checked := 0
	for id := event.EventID(1); checked < 200; id++ {
		e, ok := ds.Store.EventByID(id)
		if !ok {
			break
		}
		checked++
		kinds[ds.Store.Object(e.Dst()).Type] = true
		script := ScriptForEvent(e, ds.Store, 5, 0)
		plan, err := refiner.ParseAndCompile(script)
		if err != nil {
			t.Fatalf("event %d: script %q does not compile: %v", id, script, err)
		}
		if !strings.Contains(script, "hop <= 5") {
			t.Fatalf("script missing hop bound: %q", script)
		}
		// The event itself must satisfy the starting point it generated —
		// the contract every auto-launched session depends on.
		if ok, err := plan.MatchStart(e, ds.Store); err != nil || !ok {
			t.Fatalf("event %d does not satisfy its own script %q (ok=%v err=%v)", id, script, ok, err)
		}
		budgeted := ScriptForEvent(e, ds.Store, 5, 90*time.Second)
		if !strings.Contains(budgeted, "time <= 90s") {
			t.Fatalf("budgeted script missing time bound: %q", budgeted)
		}
		if _, err := refiner.ParseAndCompile(budgeted); err != nil {
			t.Fatalf("budgeted script does not compile: %v", err)
		}
	}
	if checked == 0 {
		t.Fatal("no events checked")
	}
	if len(kinds) < 2 {
		t.Fatalf("dataset too uniform to exercise node kinds: %v", kinds)
	}
}

// TestTail follows a growing audit log file into the live store, including
// a line split across two appends.
func TestTail(t *testing.T) {
	ds := dataset(t)
	wire := auditWire(t, ds)
	lines := bytes.SplitAfter(wire, []byte("\n"))
	if len(lines) < 100 {
		t.Fatalf("wire too small: %d lines", len(lines))
	}

	path := filepath.Join(t.TempDir(), "audit.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	live, err := store.OpenLive(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	srv, err := New(Config{Live: live, ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tailErr := make(chan error, 1)
	go func() { tailErr <- srv.Tail(ctx, path, time.Millisecond) }()

	// Append in three chunks, the middle one ending mid-line.
	half := len(lines[50]) / 2
	chunks := [][]byte{
		bytes.Join(lines[:50], nil),
		lines[50][:half],
		append(append([]byte{}, lines[50][half:]...), bytes.Join(lines[51:], nil)...),
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	want := ds.Store.NumEvents()
	deadline := time.Now().Add(10 * time.Second)
	for live.PendingEvents()+live.BaseEvents() < want {
		if time.Now().After(deadline) {
			t.Fatalf("tail ingested %d events, want %d",
				live.PendingEvents()+live.BaseEvents(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-tailErr; err != nil {
		t.Fatal(err)
	}
}

// update builds a minimal graph delta for hub tests.
func update(i int) graph.Update {
	return graph.Update{Event: event.Event{ID: event.EventID(i)}, Edges: i + 1}
}

// flat copies the hub's page-wise views of its history into one slice.
func flat(views [][]graph.Update) []graph.Update {
	var out []graph.Update
	for _, v := range views {
		out = append(out, v...)
	}
	return out
}

// claimed is everything sub can claim from h, flattened.
func claimed(h *hub, sub *subscriber) []graph.Update {
	views, _ := h.claim(sub, nil)
	return flat(views)
}

// TestHubSemantics pins the fan-out contract: a subscriber past its lag
// bound skips forward (with accounting), late subscribers get the complete
// backlog, claims carry exactly what was published since the last one, and
// subscribing after close yields a complete history with no live cursor.
func TestHubSemantics(t *testing.T) {
	reg := telemetry.NewRegistry()
	ctr := reg.Counter(telemetry.MetricServeUpdatesDropped)
	h := newHub(ctr, new(atomic.Int32))

	views, slow := h.subscribe(1)
	if len(views) != 0 || slow == nil {
		t.Fatalf("fresh subscribe = (%d, %v)", len(views), slow)
	}
	for i := 0; i < 5; i++ {
		h.publish(update(i))
	}
	// Lag bound of one: only the newest update is still claimable, the four
	// before it were skipped.
	if st := h.stats(); len(st) != 1 || st[0].Sent != 1 || st[0].Dropped != 4 {
		t.Fatalf("stats = %+v, want 1 sent / 4 dropped", st)
	}
	if batch := claimed(h, slow); len(batch) != 1 || batch[0].Event.ID != 4 {
		t.Fatalf("claim after skipping = %+v, want the newest update alone", batch)
	}
	if got := h.unsubscribe(slow); got != 4 {
		t.Fatalf("dropped = %d, want 4", got)
	}
	if ctr.Value() != 4 {
		t.Fatalf("drop counter = %d, want 4", ctr.Value())
	}

	views, sub := h.subscribe(8)
	backlog := flat(views)
	if len(backlog) != 5 || sub == nil {
		t.Fatalf("late subscribe backlog = %d", len(backlog))
	}
	h.publish(update(5))
	h.publish(update(6))
	select {
	case <-sub.wake:
	default:
		t.Fatal("publish did not poke the subscriber")
	}
	if batch := claimed(h, sub); len(batch) != 2 || batch[0].Event.ID != 5 || batch[1].Event.ID != 6 {
		t.Fatalf("live claim = %+v, want updates 5 and 6", batch)
	}
	if batch := claimed(h, sub); len(batch) != 0 {
		t.Fatalf("second claim = %+v, want nothing new", batch)
	}
	// The backlog is a view of the log as it was: later publishes neither
	// extend nor rewrite it.
	if len(views) != 1 || len(views[0]) != 5 || cap(views[0]) != 5 || views[0][4].Event.ID != 4 {
		t.Fatalf("backlog changed under a later publish: %+v", views)
	}
	h.unsubscribe(sub)

	h.close()
	h.close() // idempotent
	select {
	case <-h.done:
	default:
		t.Fatal("done channel not closed")
	}
	views, sub = h.subscribe(8)
	if backlog = flat(views); len(backlog) != 7 || sub != nil {
		t.Fatalf("post-close subscribe = (%d, %v)", len(backlog), sub)
	}
	if h.published() != 7 {
		t.Fatalf("published = %d, want 7", h.published())
	}
	if h.unsubscribe(nil) != 0 {
		t.Fatal("unsubscribe(nil) must be a harmless no-op")
	}
}

// TestLifecycleEndpoints drives pause/resume/stop over HTTP against a run
// held at the gate, then released.
func TestLifecycleEndpoints(t *testing.T) {
	ds := dataset(t)
	g := newGate()
	srv, err := New(Config{
		Source:    StaticSource(ds.Store),
		Workers:   1,
		ViewClock: g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	run, err := srv.Manager().Submit("ops", ds.Attacks[0].Scripts[0], nil, false, "")
	if err != nil {
		t.Fatal(err)
	}
	// Queued: lifecycle ops conflict (409) — there is no session yet.
	resp := postJSON(t, ts.URL+"/api/v1/sessions/"+run.ID+"/pause", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("pause while queued = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	<-g.entered
	close(g.release)
	// Poll until the session object exists, then the ops succeed whether the
	// run is still executing or already finished (both are legal states to
	// pause/stop — the executor treats them as no-ops when parked).
	deadline := time.Now().Add(10 * time.Second)
	for run.session() == nil {
		if time.Now().After(deadline) {
			t.Fatal("session never became active")
		}
		time.Sleep(time.Millisecond)
	}
	for _, op := range []string{"pause", "resume", "stop"} {
		resp := postJSON(t, ts.URL+"/api/v1/sessions/"+run.ID+"/"+op, struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", op, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if sum := run.Wait(); sum.State != "done" {
		t.Fatalf("run ended %s: %s", sum.State, sum.Error)
	}
}
