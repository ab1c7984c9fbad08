package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aptrace/internal/alerts"
	"aptrace/internal/event"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/workload"
)

// TestSubmitRollbackConcurrent is the regression test for the rollback
// race: when TrySubmit fails, the admission must remove the rejected run's
// own ID from the order — not the tail, which a concurrent Submit may have
// appended to. The wrong-ID rollback left order entries pointing at deleted
// runs, so Runs() returned nils and Summary() panicked.
func TestSubmitRollbackConcurrent(t *testing.T) {
	ds := dataset(t)
	g := newGate()
	srv, err := New(Config{
		Source:    StaticSource(ds.Store),
		Workers:   1,
		QueueCap:  1,
		Quota:     Quota{MaxActive: 1000, MaxQueued: 1000},
		ViewClock: g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := srv.Manager()
	script := ds.Attacks[0].Scripts[0]

	if _, err := mgr.Submit("seed", script, nil, false, ""); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the worker holds the seed run; one global queue slot left

	// Hammer the saturated queue from many tenants: one submission wins the
	// slot, the rest roll back while others append concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				mgr.Submit(fmt.Sprintf("t%d", n), script, nil, false, "")
			}
		}(i)
	}
	wg.Wait()

	runs := mgr.Runs()
	for _, run := range runs {
		if run == nil {
			t.Fatal("Runs() returned nil: rollback removed another run's ID")
		}
		run.Summary() // must not nil-deref
	}
	if len(runs) != 2 {
		t.Fatalf("tracked %d runs, want 2 (seed + the one queue slot)", len(runs))
	}

	close(g.release)
	for _, run := range runs {
		run.Wait()
	}
}

// TestDetectNowConcurrent pins detection-pass serialization: concurrent
// DetectNow calls (the background ticker racing the API) must not scan the
// same window twice and double-record its alerts.
func TestDetectNowConcurrent(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{Source: StaticSource(ds.Store), ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.DetectNow(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// A fresh server's single pass over the same store is the ground truth.
	ref, err := New(Config{Source: StaticSource(ds.Store), ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DetectNow()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(srv.Alerts()); got != want {
		t.Fatalf("concurrent passes recorded %d alerts, one pass records %d", got, want)
	}
}

// TestDetectNowSplitSecond pins detection across a second that two ingest
// batches share: the events of the boundary second that arrive after a pass
// must still be scanned by the next one, and the ones already alerted on must
// not be alerted on again. The live alert set has to equal an offline scan of
// the final snapshot.
func TestDetectNowSplitSecond(t *testing.T) {
	live, err := store.OpenLive(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	srv, err := New(Config{Live: live, ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}
	shell := event.Process("h1", "bash", 7, 1)
	tamper := func(at int64, path string) {
		t.Helper()
		if _, err := live.Append(at, shell, event.File("h1", path), event.ActWrite, event.FlowOut, 1); err != nil {
			t.Fatal(err)
		}
	}
	detect := func(want int) {
		t.Helper()
		if n, err := srv.DetectNow(); err != nil || n != want {
			t.Fatalf("DetectNow = %d, %v; want %d new alerts", n, err, want)
		}
	}

	tamper(1000, "/etc/shadow")
	detect(1)
	tamper(1000, "/etc/sudoers") // same second, later batch
	tamper(1000, "/tmp/scratch") // benign
	detect(1)
	detect(0) // nothing new: the boundary second is rescanned, not re-alerted
	tamper(1001, "/etc/shadow")
	detect(1)

	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := alerts.NewDetector().Scan(snap, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	got := srv.Alerts()
	if len(got) != len(offline) {
		t.Fatalf("live detection raised %d alerts, an offline scan of the final snapshot %d", len(got), len(offline))
	}
	seen := make(map[uint64]bool)
	for i, a := range offline {
		if got[i].EventID != uint64(a.Event.ID) || got[i].Rule != a.Rule {
			t.Errorf("alert %d: live (%s, event %d), offline (%s, event %d)", i, got[i].Rule, got[i].EventID, a.Rule, a.Event.ID)
		}
		if seen[got[i].EventID] {
			t.Errorf("event %d alerted twice", got[i].EventID)
		}
		seen[got[i].EventID] = true
	}
}

// TestSessionRetention: terminal runs beyond RetainSessions are evicted —
// oldest first, histories and all — while the newest stay queryable.
func TestSessionRetention(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{
		Source:         StaticSource(ds.Store),
		Workers:        1,
		RetainSessions: 2,
		ViewClock:      simClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := srv.Manager()
	script := ds.Attacks[0].Scripts[0]
	var ids []string
	for i := 0; i < 5; i++ {
		run, err := mgr.Submit("ops", script, nil, false, "")
		if err != nil {
			t.Fatal(err)
		}
		run.Wait()
		ids = append(ids, run.ID)
	}

	// Eviction runs on the worker goroutine just after the run finalizes;
	// poll until it settles on the two newest runs.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runs := mgr.Runs()
		if len(runs) == 2 && runs[0].ID == ids[3] && runs[1].ID == ids[4] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention never settled: %d runs tracked", len(runs))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := mgr.Run(ids[0]); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted run lookup err = %v, want ErrEvicted", err)
	}
	if _, err := mgr.Run("s-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("never-submitted run lookup err = %v, want ErrNotFound", err)
	}
	if _, err := mgr.Run(ids[4]); err != nil {
		t.Fatalf("retained run lookup err = %v", err)
	}
}

// TestAlertRetention: the alert log keeps only the newest RetainAlerts
// records, but Seq and AlertsTotal keep counting across evictions.
func TestAlertRetention(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{Source: StaticSource(ds.Store), RetainAlerts: 3, ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}
	n, err := srv.DetectNow()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 3 {
		t.Fatalf("dataset produced only %d alerts; retention untestable", n)
	}
	alerts := srv.Alerts()
	if len(alerts) != 3 {
		t.Fatalf("retained %d alerts, want 3", len(alerts))
	}
	if alerts[0].Seq != n-2 || alerts[2].Seq != n {
		t.Fatalf("retained Seq range [%d, %d], want [%d, %d]",
			alerts[0].Seq, alerts[2].Seq, n-2, n)
	}
	if got := srv.AlertsTotal(); got != n {
		t.Fatalf("AlertsTotal() = %d, want %d", got, n)
	}
}

// TestIngestOversizedLine: a line exceeding the scanner's 1MB frame bound
// is the client's fault — 400, not 500 — and the error body reports the
// records durably ingested before the stream aborted (ingest is not atomic).
func TestIngestOversizedLine(t *testing.T) {
	ds := dataset(t)
	live, err := store.OpenLive(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	srv, err := New(Config{Live: live, ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wire := auditWire(t, ds)
	firstLine := wire[:bytes.IndexByte(wire, '\n')+1]
	body := append(append([]byte{}, firstLine...), bytes.Repeat([]byte("x"), 2<<20)...)
	resp, err := http.Post(ts.URL+"/api/v1/ingest", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized-line ingest status = %d, want 400", resp.StatusCode)
	}
	got := decodeBody[ingestErrorResponse](t, resp)
	if got.Error == "" {
		t.Fatal("400 body carries no error")
	}
	if got.Stats.Ingested != 1 {
		t.Fatalf("stats before failure = %+v, want the 1 valid leading line ingested", got.Stats)
	}
}

// TestDrainTimeoutCountsQueued: when the drain budget expires before the
// fleet empties its queue, runs still waiting for a worker are doomed (no
// new work executes while draining) and must be counted as aborted instead
// of silently dropped from the report.
func TestDrainTimeoutCountsQueued(t *testing.T) {
	ds := dataset(t)
	g := newGate()
	srv, err := New(Config{
		Source:    StaticSource(ds.Store),
		Workers:   1,
		QueueCap:  8,
		ViewClock: g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := srv.Manager()
	script := ds.Attacks[0].Scripts[0]
	runA, err := mgr.Submit("ops", script, nil, false, "")
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered // the worker has claimed runA
	runB, err := mgr.Submit("ops", script, nil, false, "")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired budget: the drain cannot wait the worker out
	rep := srv.Drain(ctx)
	if rep.Clean {
		t.Fatal("drain with an expired budget reported clean")
	}
	if rep.Aborted != 1 {
		t.Fatalf("Aborted = %d, want 1 (runB never reached a worker)", rep.Aborted)
	}

	close(g.release)
	if sum := runA.Wait(); sum.State != "done" {
		t.Fatalf("runA ended %s: %s", sum.State, sum.Error)
	}
	if sum := runB.Wait(); sum.State != "aborted" {
		t.Fatalf("runB ended %s, want aborted", sum.State)
	}
}

// evictedFixture builds a server with RetainSessions 1, runs three sessions
// to completion, waits for retention to evict the two oldest, and returns
// the server plus (evicted ID, retained ID).
func evictedFixture(t *testing.T, memoBytes int64) (*Server, string, string) {
	t.Helper()
	ds := dataset(t)
	srv, err := New(Config{
		Source:         StaticSource(ds.Store),
		Workers:        1,
		RetainSessions: 1,
		MemoBytes:      memoBytes,
		ViewClock:      simClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr := srv.Manager()
	// An attribute where clause, so a memo-backed server consults its cache
	// (which holds attribute verdicts only).
	script := strings.Replace(ds.Attacks[0].Scripts[1], "where ", "where proc.dst.isWriteThrough != true and ", 1)
	var ids []string
	for i := 0; i < 3; i++ {
		run, err := mgr.Submit("ops", script, nil, false, "")
		if err != nil {
			t.Fatal(err)
		}
		run.Wait()
		ids = append(ids, run.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(mgr.Runs()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("retention never settled: %d runs tracked", len(mgr.Runs()))
		}
		time.Sleep(time.Millisecond)
	}
	return srv, ids[0], ids[2]
}

// TestEvictedRunEndpoints is the regression test for the evicted-ID status
// seam: every per-session endpoint — updates (SSE), explain, timeline,
// summary, lifecycle — must answer an evicted run ID with a prompt, clean
// 410 Gone, distinct from the 404 a never-submitted ID gets. Before the
// watermark existed, both cases collapsed to 404, so clients could not tell
// "stop polling, it's gone" from "wrong ID". Run under -race in CI.
func TestEvictedRunEndpoints(t *testing.T) {
	srv, evicted, retained := evictedFixture(t, 0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A hung SSE handler would stall the whole test; bound every request.
	client := &http.Client{Timeout: 10 * time.Second}
	endpoints := []struct {
		method, path string
	}{
		{http.MethodGet, "/api/v1/sessions/%s"},
		{http.MethodGet, "/api/v1/sessions/%s/updates"},
		{http.MethodGet, "/api/v1/sessions/%s/explain"},
		{http.MethodGet, "/api/v1/sessions/%s/timeline"},
		{http.MethodPost, "/api/v1/sessions/%s/stop"},
	}
	for _, ep := range endpoints {
		for _, tc := range []struct {
			id   string
			want int
		}{
			{evicted, http.StatusGone},
			{"s-999999", http.StatusNotFound},
			{"no-such-id", http.StatusNotFound},
		} {
			req, err := http.NewRequest(ep.method, ts.URL+fmt.Sprintf(ep.path, tc.id), nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", ep.method, ep.path, err)
			}
			body := decodeBody[errorResponse](t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s with id %s = %d, want %d", ep.method, ep.path, tc.id, resp.StatusCode, tc.want)
			}
			if body.Error == "" {
				t.Fatalf("%s %s: error body is empty", ep.method, ep.path)
			}
		}
	}

	// The retained run still answers normally.
	resp, err := client.Get(ts.URL + "/api/v1/sessions/" + retained)
	if err != nil {
		t.Fatal(err)
	}
	if sum := decodeBody[Summary](t, resp); sum.ID != retained {
		t.Fatalf("retained run summary ID = %q, want %q", sum.ID, retained)
	}
}

// TestServeMemoIdenticalResults: sessions running over the manager's shared
// memo cache must report the same graphs as a memo-less server — the cache
// is a CPU optimization, never a result change — and repeated identical
// scripts must actually hit it.
func TestServeMemoIdenticalResults(t *testing.T) {
	plain, _, plainID := evictedFixture(t, 0)
	memod, _, memoID := evictedFixture(t, 32<<20)

	p, err := plain.Manager().Run(plainID)
	if err != nil {
		t.Fatal(err)
	}
	m, err := memod.Manager().Run(memoID)
	if err != nil {
		t.Fatal(err)
	}
	ps, ms := p.Summary(), m.Summary()
	if ps.Edges != ms.Edges || ps.Nodes != ms.Nodes || ps.Updates != ms.Updates || ps.Reason != ms.Reason {
		t.Fatalf("memo changed session results:\n  off: %d edges %d nodes %d updates %q\n   on: %d edges %d nodes %d updates %q",
			ps.Edges, ps.Nodes, ps.Updates, ps.Reason, ms.Edges, ms.Nodes, ms.Updates, ms.Reason)
	}
	if cs := memod.memo.Stats(); cs.Hits == 0 {
		t.Fatalf("three identical sessions never hit the shared cache: %+v", cs)
	}
}

// dataset2 is a dataset with different content than dataset — a stand-in
// for a live store that resealed after more ingest.
func dataset2(t testing.TB) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Config{Seed: 11, Hosts: 3, Days: 2, Density: 0.4}, simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestServeMemoResealInvalidation: when the source reseals with new content
// (live ingest between detection passes), the next snapshot refresh must
// reset the shared cache — the signature in every key already guards
// correctness; the reset reclaims the dead entries' memory.
func TestServeMemoResealInvalidation(t *testing.T) {
	srv, _, _ := evictedFixture(t, 32<<20)
	if cs := srv.memo.Stats(); cs.Entries == 0 {
		t.Fatalf("fixture never populated the cache: %+v", cs)
	}

	// Same content: refresh must keep the entries (signature unchanged).
	if _, err := srv.refreshSnapshot(); err != nil {
		t.Fatal(err)
	}
	if cs := srv.memo.Stats(); cs.Entries == 0 {
		t.Fatal("refresh with unchanged content dropped the cache")
	}

	// New content: swap the source for a differently sealed store.
	srv.cfg.Source = StaticSource(dataset2(t).Store)
	if _, err := srv.refreshSnapshot(); err != nil {
		t.Fatal(err)
	}
	if cs := srv.memo.Stats(); cs.Entries != 0 {
		t.Fatalf("reseal left %d stale entries resident", cs.Entries)
	}
}
