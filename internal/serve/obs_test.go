package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/obs"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// TestReadyzDegradedStates walks readiness through every component
// failure: a stalled detector, a missing snapshot, and a draining fleet —
// each must flip exactly its own component and the overall verdict.
func TestReadyzDegradedStates(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{
		Source:      StaticSource(ds.Store),
		DetectEvery: 50 * time.Millisecond,
		ViewClock:   simClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// No detection pass has run yet: within the startup grace window the
	// daemon is ready, beyond it the detector reads as stalled.
	if resp := srv.readiness(srv.startedAt.Add(100 * time.Millisecond)); resp.Status != "ready" {
		t.Fatalf("inside grace window: %+v", resp)
	}
	resp := srv.readiness(srv.startedAt.Add(time.Second))
	if resp.Status != "unavailable" || resp.Components["detector"].OK {
		t.Fatalf("stalled detector not flagged: %+v", resp)
	}
	for _, name := range []string{"store", "fleet", "drain"} {
		if !resp.Components[name].OK {
			t.Fatalf("component %s degraded by a detector stall: %+v", name, resp)
		}
	}

	// A completed pass refreshes the staleness clock.
	if _, err := srv.DetectNow(); err != nil {
		t.Fatal(err)
	}
	if resp := srv.readiness(time.Now()); resp.Status != "ready" {
		t.Fatalf("after DetectNow: %+v", resp)
	}
	httpResp := mustGet(t, ts.URL+"/readyz")
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /readyz = %d, want 200", httpResp.StatusCode)
	}
	httpResp.Body.Close()

	// A vanished snapshot degrades only the store component.
	srv.mu.Lock()
	saved := srv.snap
	srv.snap = nil
	srv.mu.Unlock()
	resp = srv.readiness(time.Now())
	if resp.Status != "unavailable" || resp.Components["store"].OK || !resp.Components["fleet"].OK {
		t.Fatalf("missing snapshot: %+v", resp)
	}
	srv.mu.Lock()
	srv.snap = saved
	srv.mu.Unlock()

	// Draining flips both the drain and fleet components, and the HTTP
	// surface answers 503 while liveness (healthz) stays 200.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Drain(ctx)
	resp = srv.readiness(time.Now())
	if resp.Status != "unavailable" || resp.Components["drain"].OK || resp.Components["fleet"].OK {
		t.Fatalf("draining: %+v", resp)
	}
	httpResp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /readyz while draining = %d, want 503", httpResp.StatusCode)
	}
	httpResp.Body.Close()
	httpResp = mustGet(t, ts.URL+"/healthz")
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz while draining = %d, want 200 (liveness)", httpResp.StatusCode)
	}
	httpResp.Body.Close()
}

// chainStages collects the distinct stages present in a journal slice.
func chainStages(entries []obs.Entry) map[string]bool {
	got := make(map[string]bool, len(entries))
	for _, e := range entries {
		got[e.Stage] = true
	}
	return got
}

// chainPipeline runs the whole triage pipeline on a fresh daemon over a fresh
// live store: the dataset's audit wire ingested in four batches (so distinct
// correlation IDs map distinct event-ID ranges, one corr per batch), one
// detection pass with auto-backtrack, every launched run awaited. It returns
// the daemon and the batch count.
func chainPipeline(t *testing.T, wire []byte, reg *telemetry.Registry, journal *obs.Journal) (*Server, int) {
	t.Helper()
	live, err := store.OpenLive(t.TempDir(), nil, store.WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { live.Close() })
	srv, err := New(Config{
		Live:          live,
		AutoBacktrack: true,
		AutoHops:      8,
		Quota:         Quota{MaxActive: 8, MaxQueued: 64},
		QueueCap:      128,
		Telemetry:     reg,
		ViewClock:     simClock,
		Journal:       journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(wire, "\n"), []byte("\n"))
	chunk := (len(lines) + 3) / 4
	batches := 0
	for at := 0; at < len(lines); at += chunk {
		end := at + chunk
		if end > len(lines) {
			end = len(lines)
		}
		payload := append(bytes.Join(lines[at:end], []byte("\n")), '\n')
		if _, err := srv.IngestReader(bytes.NewReader(payload)); err != nil {
			t.Fatal(err)
		}
		batches++
	}
	if n, err := srv.DetectNow(); err != nil || n == 0 {
		t.Fatalf("DetectNow = %d, %v", n, err)
	}
	for _, run := range srv.Manager().Runs() {
		run.Wait()
	}
	return srv, batches
}

// pipelineFingerprint renders everything a daemon's pipeline produced: the
// alert log (rule, severity, event, auto-launched session) and each run's
// terminal summary with an FNV-64a hash of its DOT graph.
func pipelineFingerprint(t *testing.T, srv *Server) []string {
	t.Helper()
	var fps []string
	for _, a := range srv.Alerts() {
		fps = append(fps, fmt.Sprintf("alert seq=%d rule=%s sev=%s event=%d session=%s",
			a.Seq, a.Rule, a.Severity, a.EventID, a.SessionID))
	}
	for _, run := range srv.Manager().Runs() {
		sum := run.Summary()
		h := fnv.New64a()
		if err := graph.WriteDOT(h, run.Graph(), run.View().Object); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fmt.Sprintf("run id=%s auto=%v rule=%s alert=%d state=%s reason=%s updates=%d edges=%d nodes=%d dot=%016x",
			sum.ID, sum.Auto, sum.Rule, sum.AlertID, sum.State, sum.Reason,
			sum.Updates, sum.Edges, sum.Nodes, h.Sum64()))
	}
	return fps
}

// TestCorrelationChainCompleteness is the tentpole invariant: every
// auto-launched run's lifecycle must reconstruct gap-free from its single
// correlation ID — ingest batch, alert, queued, active, first update,
// terminal — plus the pipeline SLIs the chain feeds. Its last phase is the
// journal's zero-effect contract: the same wire through a daemon with no
// journal yields the same alerts and the same runs, graph for graph.
func TestCorrelationChainCompleteness(t *testing.T) {
	wire := auditWire(t, dataset(t))
	reg := telemetry.NewRegistry()
	// Debug, so the comparison below covers every emission site; the ring
	// is large enough that sampling, not eviction, decides what is kept.
	journal := obs.New(obs.Options{Level: obs.Debug, Ring: 1 << 16, Telemetry: reg})
	srv, batches := chainPipeline(t, wire, reg, journal)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if got := len(journal.Query(obs.Filter{Stage: obs.StageIngest})); got != batches {
		t.Fatalf("ingest.batch entries = %d, want %d", got, batches)
	}

	auto := 0
	for _, run := range srv.Manager().Runs() {
		sum := run.Wait()
		if !sum.Auto {
			continue
		}
		auto++
		if sum.Corr == "" {
			t.Fatalf("auto run %s has no correlation ID", sum.ID)
		}
		// The corr chain: everything from the ingest batch through the
		// terminal state under one ID.
		stages := chainStages(journal.Query(obs.Filter{Corr: sum.Corr}))
		want := []string{obs.StageIngest, obs.StageAlert, obs.StageRunQueued, obs.StageRunActive, obs.StageRunTerminal}
		if sum.Updates > 0 {
			want = append(want, obs.StageRunFirstUpdate)
		}
		for _, stage := range want {
			if !stages[stage] {
				t.Fatalf("run %s (corr %s) chain missing %s: have %v", sum.ID, sum.Corr, stage, stages)
			}
		}
		// The run-scoped view must agree.
		runStages := chainStages(journal.Query(obs.Filter{Run: sum.ID}))
		if !runStages[obs.StageRunTerminal] {
			t.Fatalf("run filter missing terminal for %s: %v", sum.ID, runStages)
		}
	}
	if auto == 0 {
		t.Fatal("no auto-launched runs to verify")
	}

	// The HTTP journal endpoint serves the same chain.
	corr := srv.Manager().Runs()[0].Corr
	resp := mustGet(t, ts.URL+"/debug/journal?corr="+corr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/journal = %d", resp.StatusCode)
	}
	body := decodeBody[struct {
		Count int `json:"count"`
	}](t, resp)
	if body.Count == 0 {
		t.Fatalf("journal endpoint returned no entries for corr %s", corr)
	}

	// Lifecycle SLIs observed along the chain.
	snap := reg.Snapshot()
	for _, name := range []string{
		telemetry.MetricSLIIngestToDetect,
		telemetry.MetricSLIDetectToLaunch,
		telemetry.MetricSLISubmitToTerminal,
	} {
		if snap.Histograms[name].Count == 0 {
			t.Fatalf("SLI %s never observed", name)
		}
	}

	// /ops reflects the journal and SLI state.
	opsResp := mustGet(t, ts.URL+"/ops")
	ops := decodeBody[opsResponse](t, opsResp)
	if ops.Journal == nil || ops.Journal.Kept == 0 {
		t.Fatalf("/ops journal stats = %+v", ops.Journal)
	}
	if ops.SLIs["submit_to_terminal"].Count == 0 {
		t.Fatalf("/ops SLIs = %+v", ops.SLIs)
	}
	if ops.AlertsTotal == 0 || ops.Sessions["submitted"] == 0 {
		t.Fatalf("/ops = %+v", ops)
	}

	// The journal only reads: a daemon without one finds the same alerts
	// and launches the same runs to the same graphs.
	bare, _ := chainPipeline(t, wire, telemetry.NewRegistry(), nil)
	want, got := pipelineFingerprint(t, bare), pipelineFingerprint(t, srv)
	if len(got) != len(want) {
		t.Fatalf("journaled daemon produced %d alerts+runs, unjournaled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("journal changed the pipeline's output:\n  on:  %s\n  off: %s", got[i], want[i])
		}
	}
}

// TestSlowSubscriberPerSubDrops is the per-subscriber drop-accounting
// regression test: a deaf subscriber and a live SSE client share one run;
// the done frame must carry the SSE client's own identity and delivery
// counts, /ops must expose the deaf subscriber's drops, and concurrent
// /ops polling during publication must be race-free (run under -race).
func TestSlowSubscriberPerSubDrops(t *testing.T) {
	ds := dataset(t)
	g := newGate()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{
		Source:           StaticSource(ds.Store),
		Workers:          1,
		SubscriberBuffer: 1, // force drops on any consumer slower than the run
		Telemetry:        reg,
		ViewClock:        g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	run, err := srv.Manager().Submit("analyst", atk.Scripts[0], &alert, false, "")
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered // worker holds the run just before execution

	// Deaf subscriber: buffer of one, never read.
	_, deaf := run.hub.subscribe(1)

	// Live SSE client, attached before the run starts.
	resp, err := http.Get(ts.URL + "/api/v1/sessions/" + run.ID + "/updates")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Hammer /ops concurrently with publication: hub.stats() vs publish
	// is exactly the race this test pins down.
	opsDone := make(chan struct{})
	go func() {
		defer close(opsDone)
		for {
			select {
			case <-run.Done():
				return
			default:
			}
			r := mustGet(t, ts.URL+"/ops")
			r.Body.Close()
		}
	}()

	close(g.release)
	sum := run.Wait()
	<-opsDone
	if sum.State != "done" || sum.Updates == 0 {
		t.Fatalf("run = %+v", sum)
	}

	// Drain the SSE stream to its done frame: the subscriber's identity
	// and delivery accounting ride in it.
	frames := readSSE(t, bufio.NewReader(resp.Body), 0)
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("last frame = %s", last.event)
	}
	var done doneEvent
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Subscriber == 0 {
		t.Fatalf("done frame has no subscriber ID: %s", last.data)
	}
	if done.DeliveredUpdates+done.DroppedUpdates != sum.Updates {
		t.Fatalf("delivered %d + dropped %d != published %d",
			done.DeliveredUpdates, done.DroppedUpdates, sum.Updates)
	}

	// /ops still lists the deaf subscriber, with its personal drop count.
	ops := decodeBody[opsResponse](t, mustGet(t, ts.URL+"/ops"))
	var deafStat *subStat
	for _, rs := range ops.Subscribers {
		if rs.Run != run.ID {
			continue
		}
		for i := range rs.Subscribers {
			if rs.Subscribers[i].ID == deaf.id {
				deafStat = &rs.Subscribers[i]
			}
		}
	}
	if deafStat == nil {
		t.Fatalf("/ops lost the deaf subscriber: %+v", ops.Subscribers)
	}
	if deafStat.Sent+deafStat.Dropped != sum.Updates || deafStat.Dropped != sum.Updates-1 {
		t.Fatalf("deaf stat = %+v, want 1 sent / %d dropped", deafStat, sum.Updates-1)
	}
	if got := run.hub.unsubscribe(deaf); got != deafStat.Dropped {
		t.Fatalf("unsubscribe = %d, stats said %d", got, deafStat.Dropped)
	}

	// With no journal configured, /debug/journal is not mounted: the
	// registry's /debug/ mux answers 404 instead of an empty chain.
	jr, err := http.Get(ts.URL + "/debug/journal")
	if err != nil {
		t.Fatal(err)
	}
	if jr.StatusCode != http.StatusNotFound {
		t.Fatalf("journal disabled: GET /debug/journal = %d, want 404", jr.StatusCode)
	}
	jr.Body.Close()
}

// TestJournalCarriesPipelineStagesOnly holds the journal to the pipeline: a
// daemon journaled at Debug, with the memo cache on and a run paused and
// resumed through the API, journals only obs's own stages — nothing of a
// run's windows, memo verdicts or analyst actions, which are the run log's.
func TestJournalCarriesPipelineStagesOnly(t *testing.T) {
	ds := dataset(t)
	journal := obs.New(obs.Options{Level: obs.Debug, Ring: 1 << 16})
	srv, err := New(Config{
		Source:        StaticSource(ds.Store),
		AutoBacktrack: true,
		AutoHops:      8,
		Quota:         Quota{MaxActive: 8, MaxQueued: 64},
		QueueCap:      64,
		MemoBytes:     16 << 20,
		ViewClock:     simClock,
		Journal:       journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if n, err := srv.DetectNow(); err != nil || n == 0 {
		t.Fatalf("DetectNow = %d, %v", n, err)
	}
	// An attribute where clause, so the run consults the memo cache.
	script := strings.Replace(ds.Attacks[0].Scripts[1], "where ", "where proc.dst.isWriteThrough != true and ", 1)
	run, err := srv.Manager().Submit("analyst", script, nil, false, "")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); run.session() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("session never became active")
		}
	}
	for _, op := range []string{"pause", "resume"} {
		resp := postJSON(t, ts.URL+"/api/v1/sessions/"+run.ID+"/"+op, struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", op, resp.StatusCode)
		}
		resp.Body.Close()
	}
	for _, r := range srv.Manager().Runs() {
		r.Wait()
	}
	if st := srv.memo.Stats(); st.Hits+st.Misses == 0 {
		t.Fatal("no run consulted the memo cache")
	}

	pipeline := map[string]bool{}
	for _, s := range []string{
		obs.StageIngest, obs.StageDetect, obs.StageAlert,
		obs.StageRunQueued, obs.StageRunRejected, obs.StageRunActive,
		obs.StageRunFirstUpdate, obs.StageRunTerminal, obs.StageRunEvicted,
		obs.StageSSESubscribe, obs.StageSSEClose, obs.StageOpsAlert, obs.StageDrain,
	} {
		pipeline[s] = true
	}
	entries := journal.Query(obs.Filter{Limit: 1 << 16})
	if !chainStages(entries)[obs.StageDetect] {
		t.Fatal("no Debug detect.pass entry: the journal is not at Debug")
	}
	for _, e := range entries {
		if !pipeline[e.Stage] {
			t.Errorf("journal entry of stage %q (%s): not a pipeline stage", e.Stage, e.Msg)
		}
	}
}

// TestWatchdogMemoHitRateExact holds the watchdog's memo_hit_rate to the
// cache's exact counts: a view's hits reach aptrace_memo_hits_total only in
// batches, so a tick while runs are in flight must not read that counter.
func TestWatchdogMemoHitRateExact(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{
		Source:    StaticSource(ds.Store),
		MemoBytes: 8 << 20,
		OpsRules:  []obs.Rule{{Stat: obs.StatMemoHitRate, Less: true, Threshold: 0.05}},
		ViewClock: simClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Watchdog().Tick(time.Now()) // the baseline

	snap, _ := srv.Snapshot()
	view, err := srv.memo.Bind(snap, "exact-counts", nil)
	if err != nil {
		t.Fatal(err)
	}
	from, to, _ := snap.TimeRange()
	const objects, repeats = 20, 3 // 20 misses, then 40 hits — fewer than a view publishes at once
	for r := 0; r < repeats; r++ {
		for obj := 0; obj < objects; obj++ {
			if _, err := view.IsReadOnlyFile(event.ObjID(obj), from, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := srv.opsCounts()
	if wantHits := int64(objects * (repeats - 1)); c.MemoHits != wantHits || c.MemoMisses != objects {
		t.Fatalf("opsCounts memo hits/misses = %d/%d, want %d/%d", c.MemoHits, c.MemoMisses, wantHits, objects)
	}
	if fired := srv.Watchdog().Tick(time.Now()); len(fired) != 0 {
		t.Fatalf("memo_hit_rate rule fired on a 2/3 hit rate: %+v", fired)
	}
}

// failingWriter fails every write, like a full disk or a closed stdout.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestJournalWriteErrorOnOps shows a journal whose NDJSON writer failed on
// GET /ops, as journal.error.
func TestJournalWriteErrorOnOps(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{
		Source:    StaticSource(ds.Store),
		ViewClock: simClock,
		Journal:   obs.New(obs.Options{Level: obs.Debug, Out: failingWriter{}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.DetectNow(); err != nil {
		t.Fatal(err)
	}
	ops := decodeBody[opsResponse](t, mustGet(t, ts.URL+"/ops"))
	if ops.Journal == nil || ops.Journal.Error != io.ErrClosedPipe.Error() {
		t.Fatalf("/ops journal = %+v, want error %q", ops.Journal, io.ErrClosedPipe)
	}
}
