package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/memo"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
)

// runFingerprint executes one backtrack over a fresh view and returns every
// observable the charged-cost invariant protects: the DOT rendering, the
// result summary, the store's Stats delta, and the simulated elapsed time.
func runFingerprint(t *testing.T, s *store.Store, start event.Event, where string, c *memo.Cache) string {
	t.Helper()
	v, err := s.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	x, err := New(v, wildcardPlan(t, where), Options{Windows: 8, Memo: c})
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.RunUnchecked(start)
	if err != nil {
		t.Fatal(err)
	}
	var dot bytes.Buffer
	if err := graph.WriteDOT(&dot, res.Graph, v.Object); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	return fmt.Sprintf("reason=%v updates=%d windows=%d elapsed=%v queries=%d rows=%d buckets=%d dot=%s",
		res.Reason, res.Updates, res.Windows, res.Elapsed,
		st.Queries, st.RowsExamined, st.BucketsPruned, dot.String())
}

// TestMemoDifferential is the satellite-4 property test: batch triage with
// the memo on must be byte-identical to the memo off — per-alert graphs,
// DOT output, and the charged-cost Stats deltas — because a hit replays the
// exact charge of the query it elides. A second cached pass (now nearly all
// hits) must also be identical, exercising the hit path end to end.
func TestMemoDifferential(t *testing.T) {
	s, alert := fixture(t, nil, 400)
	where := "where file.path != \"*.dll\" and proc.dst.isWriteThrough != true and file.last_access_time >= \"1970-01-01 00:00:00\""
	starts := append(s.RandomEvents(12, rand.New(rand.NewSource(7))), alert)

	baselines := make([]string, len(starts))
	for i, ev := range starts {
		baselines[i] = runFingerprint(t, s, ev, where, nil)
	}

	cache := memo.New(0, nil)
	for pass := 1; pass <= 2; pass++ {
		for i, ev := range starts {
			got := runFingerprint(t, s, ev, where, cache)
			if got != baselines[i] {
				t.Fatalf("pass %d start %d (event %d): cached run diverged\n cached: %.300s\nuncached: %.300s",
					pass, i, ev.ID, got, baselines[i])
			}
		}
	}
	cs := cache.Stats()
	if cs.Hits == 0 {
		t.Fatalf("differential run never hit the cache: %+v", cs)
	}
	t.Logf("memo stats after two cached passes: %+v (hit rate %.1f%%)", cs, 100*cs.HitRate())
}

// TestMemoPlanFingerprintSeparation runs two plans whose filters differ over
// the same cache and alert: results must match each plan's uncached run, so
// a verdict cached under one filter can never leak into the other.
func TestMemoPlanFingerprintSeparation(t *testing.T) {
	s, alert := fixture(t, nil, 200)
	whereA := "where file.path != \"*.dll\" and proc.dst.isWriteThrough != true"
	whereB := "where proc.dst.isWriteThrough != true" // DLL loads stay in the graph

	unA := runFingerprint(t, s, alert, whereA, nil)
	unB := runFingerprint(t, s, alert, whereB, nil)
	if unA == unB {
		t.Fatal("fixture error: the two filters should produce different graphs")
	}

	cache := memo.New(0, nil)
	for pass := 1; pass <= 2; pass++ {
		if got := runFingerprint(t, s, alert, whereA, cache); got != unA {
			t.Fatalf("pass %d: plan A diverged under the shared cache", pass)
		}
		if got := runFingerprint(t, s, alert, whereB, cache); got != unB {
			t.Fatalf("pass %d: plan B diverged under the shared cache", pass)
		}
	}
	if cs := cache.Stats(); cs.Hits == 0 {
		t.Fatalf("the two plans never hit the cache: %+v", cs)
	}
}

// TestMemoPlainScriptLeavesCacheEmpty: window closures go straight to the
// store, so runs whose scripts evaluate no computed attribute never touch
// the cache, however many windows they query.
func TestMemoPlainScriptLeavesCacheEmpty(t *testing.T) {
	s, alert := fixture(t, nil, 200)
	cache := memo.New(0, nil)
	for _, where := range []string{"", "where file.path != \"*.dll\""} {
		for pass := 1; pass <= 2; pass++ {
			runFingerprint(t, s, alert, where, cache)
		}
	}
	if cs := cache.Stats(); cs != (memo.Stats{}) {
		t.Fatalf("plain scripts used the cache: %+v", cs)
	}
}
