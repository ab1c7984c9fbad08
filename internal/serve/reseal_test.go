package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"aptrace/internal/alerts"
	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/session"
	"aptrace/internal/store"
)

// storeDigest fingerprints what a snapshot answers: its content signature
// and every event a full scan returns.
func storeDigest(t *testing.T, st *store.Store) string {
	t.Helper()
	sig, err := st.ContentSignature()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	min, max, _ := st.TimeRange()
	err = st.Scan(min, max+1, func(e event.Event) bool {
		fmt.Fprintf(h, "%+v\n", e)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x/%d/%016x", sig, st.NumEvents(), h.Sum64())
}

// dotDigest hashes a graph's DOT rendering.
func dotDigest(t *testing.T, g *graph.Graph, st *store.Store) uint64 {
	t.Helper()
	h := fnv.New64a()
	if err := graph.WriteDOT(h, g, st.Object); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// everyNth fires on every nth event: a steady stream of auto-runs whose set
// depends on the events alone, so an offline scan can reproduce it.
type everyNth int

func (everyNth) Name() string { return "every-nth" }

func (n everyNth) Check(e event.Event, _ *store.Store) (string, alerts.Severity, bool) {
	return "sampled", alerts.Low, int(e.ID)%int(n) == 0
}

// TestResealUnderLoad races the live store's reseal against everything that
// reads snapshots (run it under -race). A daemon with a shared memo cache and
// auto-backtrack takes ingest batches while detection passes reseal the store
// (resetting the cache whenever the content moved), auto-runs query earlier
// snapshots, and an SSE client streams a run. Every run must finish, the live
// alert set must equal an offline scan of the final snapshot, each run's graph
// must equal a cache-less rerun on the view it ran on, and a snapshot taken
// early must read the same after every later append and reseal.
func TestResealUnderLoad(t *testing.T) {
	wire := auditWire(t, dataset(t))
	rules := append(alerts.DefaultRules(), everyNth(bytes.Count(wire, []byte("\n"))/40))
	live, err := store.OpenLive(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	srv, err := New(Config{
		Live:           live,
		Rules:          rules,
		AutoBacktrack:  true,
		AutoHops:       6,
		Workers:        2,
		QueueCap:       1 << 12,
		Quota:          Quota{MaxActive: 2, MaxQueued: 1 << 12},
		RetainSessions: -1,
		RetainAlerts:   -1,
		MemoBytes:      8 << 20,
		ViewClock:      simClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	lines := bytes.SplitAfter(wire, []byte("\n"))
	const nBatches = 8
	batch := func(i int) []byte {
		return bytes.Join(lines[i*len(lines)/nBatches:(i+1)*len(lines)/nBatches], nil)
	}
	if _, err := srv.IngestReader(bytes.NewReader(batch(0))); err != nil {
		t.Fatal(err)
	}
	early, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	earlyDigest := storeDigest(t, early)

	var wg sync.WaitGroup
	ingested := make(chan struct{})
	errs := make(chan error, 4)
	wg.Add(3)
	go func() { // the collectors
		defer wg.Done()
		defer close(ingested)
		for i := 1; i < nBatches; i++ {
			if _, err := srv.IngestReader(bytes.NewReader(batch(i))); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // the detection loop, never more than one batch behind
		defer wg.Done()
		for {
			select {
			case <-ingested:
				return
			default:
			}
			if _, err := srv.DetectNow(); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // an analyst streaming the first auto-run while the rest go on
		defer wg.Done()
		var run *Run
		for run == nil {
			select {
			case <-ingested:
				if runs := srv.Manager().Runs(); len(runs) > 0 {
					run = runs[0]
					continue
				}
				return
			default:
			}
			if runs := srv.Manager().Runs(); len(runs) > 0 {
				run = runs[0]
			}
			time.Sleep(time.Millisecond)
		}
		resp, err := http.Get(ts.URL + "/api/v1/sessions/" + run.ID + "/updates")
		if err != nil {
			errs <- err
			return
		}
		frames := readSSE(t, bufio.NewReader(resp.Body), 0)
		resp.Body.Close()
		if sum := run.Wait(); len(frames) != sum.Updates+1 || frames[len(frames)-1].event != "done" {
			errs <- fmt.Errorf("stream of %s: %d frames for %d updates", run.ID, len(frames), sum.Updates)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := srv.DetectNow(); err != nil {
		t.Fatal(err)
	}

	final, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := alerts.NewDetector(rules...).Scan(final, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, a := range offline {
		want = append(want, fmt.Sprintf("%s/%d", a.Rule, a.Event.ID))
	}
	for _, a := range srv.Alerts() {
		got = append(got, fmt.Sprintf("%s/%d", a.Rule, a.EventID))
	}
	slices.Sort(want)
	slices.Sort(got)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("live detection raised %v, an offline scan of the final snapshot %v", got, want)
	}

	runs := srv.Manager().Runs()
	if len(runs) != len(want) {
		t.Fatalf("%d auto-runs for %d alerts", len(runs), len(want))
	}
	for _, run := range runs {
		sum := run.Wait()
		if sum.State != "done" {
			t.Fatalf("run %s ended %s: %s", sum.ID, sum.State, sum.Error)
		}
		view, err := run.View().View(simClock())
		if err != nil {
			t.Fatal(err)
		}
		alert, ok := view.EventByID(event.EventID(sum.AlertID))
		if !ok {
			t.Fatalf("run %s: alert %d is not in its own view", sum.ID, sum.AlertID)
		}
		again := session.New(view, core.Options{})
		if err := again.Start(sum.Script, &alert); err != nil {
			t.Fatal(err)
		}
		if _, err := again.Wait(); err != nil {
			t.Fatal(err)
		}
		if a, b := dotDigest(t, run.Graph(), view), dotDigest(t, again.Graph(), view); a != b {
			t.Errorf("run %s: graph %016x, a rerun on its view %016x", sum.ID, a, b)
		}
	}
	if d := storeDigest(t, early); d != earlyDigest {
		t.Fatalf("the early snapshot changed under later appends and reseals: %s, then %s", earlyDigest, d)
	}
}
