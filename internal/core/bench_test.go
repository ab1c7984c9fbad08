package core

import (
	"testing"

	"aptrace/internal/event"
)

// BenchmarkResponsiveWindowSteadyState measures the executor's per-window
// hot path once a run has converged: cardinality estimate, window query into
// the reused dependency buffer, and dedup of already-known edges. This is
// the loop the paper's responsiveness rests on, and it must not allocate.
func BenchmarkResponsiveWindowSteadyState(b *testing.B) {
	s, alert := fixture(b, nil, 5000)
	x, err := New(s, wildcardPlan(b, ""), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := x.RunUnchecked(alert); err != nil {
		b.Fatal(err)
	}
	// Re-process the heaviest window of the finished run: every dependency
	// it returns is already an edge, so the iteration exercises exactly the
	// steady-state path.
	var hot event.ObjID
	for id := event.ObjID(0); int(id) < s.NumObjects(); id++ {
		if s.InDegree(id) > s.InDegree(hot) {
			hot = id
		}
	}
	w := ExecWindow{Obj: hot, Begin: 0, Finish: alert.Time, Gen: alert.ID}
	w.Slot, _ = x.g.Slot(hot)
	card, err := s.CountBackward(hot, w.Begin, w.Finish)
	if err != nil {
		b.Fatal(err)
	}
	w.Card = int32(card)
	x.opts.NoSplit = true // never re-split: measure the query path
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.processWindow(&w); err != nil {
			b.Fatal(err)
		}
	}
}
