package session

import (
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/graph"
	"aptrace/internal/telemetry"
)

// TestSessionTelemetry drives a pause/resume cycle with a registry attached
// and checks the session counters and the session.pause span.
func TestSessionTelemetry(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	reg := telemetry.NewRegistry()
	ds.Store.SetTelemetry(reg)

	var s *Session
	paused := make(chan struct{}, 1)
	n := 0
	s = New(ds.Store, core.Options{Telemetry: reg, OnUpdate: func(u graph.Update) {
		n++
		if n == 3 {
			s.Pause()
			select {
			case paused <- struct{}{}:
			default:
			}
		}
	}})
	if err := s.Start(atk.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	select {
	case <-paused:
	case <-time.After(10 * time.Second):
		t.Fatal("never paused")
	}
	s.Resume()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricSessionUpdates]; got != int64(res.Updates) {
		t.Fatalf("session updates counter = %d, executor reported %d", got, res.Updates)
	}
	if got := snap.Counters[telemetry.MetricSessionPauses]; got != 1 {
		t.Fatalf("pauses counter = %d, want 1", got)
	}
	if got := snap.Counters[telemetry.MetricSessionResumes]; got != 1 {
		t.Fatalf("resumes counter = %d, want 1", got)
	}

	var pauseSpans int
	for _, sp := range reg.Tracer().Spans() {
		if sp.Name == telemetry.SpanSessionPause {
			pauseSpans++
			if sp.Duration < 0 {
				t.Fatalf("pause span has negative duration %v", sp.Duration)
			}
		}
	}
	if pauseSpans != 1 {
		t.Fatalf("recorded %d session.pause spans, want 1", pauseSpans)
	}
}

// TestSessionStopEndsPauseSpan ensures a session stopped while paused still
// closes its open pause span.
func TestSessionStopEndsPauseSpan(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	reg := telemetry.NewRegistry()

	var s *Session
	paused := make(chan struct{}, 1)
	s = New(ds.Store, core.Options{Telemetry: reg, OnUpdate: func(graph.Update) {
		select {
		case paused <- struct{}{}:
			s.Pause()
		default:
		}
	}})
	if err := s.Start(atk.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	<-paused
	s.Stop()
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sp := range reg.Tracer().Spans() {
		if sp.Name == telemetry.SpanSessionPause {
			found = true
		}
	}
	if !found {
		t.Fatal("stop while paused must still record the pause span")
	}
	if got := reg.Snapshot().Counters[telemetry.MetricSessionResumes]; got != 0 {
		t.Fatalf("stop is not a resume: resumes counter = %d", got)
	}
}

// TestSessionPauseAfterStopEndsPauseSpan forces the interleaving the test
// above meets once in sixty runs: the Stop that ends the run has already
// closed whatever pause span was open when a Pause opens one. Both come from
// an OnUpdate callback, so the order is the program's, not the scheduler's;
// the run ends at the next window boundary and must close the span itself.
func TestSessionPauseAfterStopEndsPauseSpan(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	reg := telemetry.NewRegistry()

	var s *Session
	first := true
	s = New(ds.Store, core.Options{Telemetry: reg, OnUpdate: func(graph.Update) {
		if first {
			first = false
			s.Stop()
			s.Pause()
		}
	}})
	if err := s.Start(atk.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	pauses := 0
	for _, sp := range reg.Tracer().Spans() {
		if sp.Name == telemetry.SpanSessionPause {
			pauses++
		}
	}
	if pauses != 1 {
		t.Fatalf("%d finished pause spans, want the one the late Pause opened", pauses)
	}
}
