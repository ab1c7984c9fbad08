package session

import (
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/explain"
	"aptrace/internal/graph"
	"aptrace/internal/telemetry"
)

// pauseSpans counts the session.pause spans of the run log's trace.
func pauseSpans(rec *explain.Recorder) int {
	evs, _ := rec.Events()
	n := 0
	for _, ev := range evs {
		if ev.Kind == explain.EvPause {
			n++
		}
	}
	return n
}

// TestSessionTelemetry drives a pause/resume cycle with a registry and a run
// log attached and checks the session counters and the trace's pause span.
func TestSessionTelemetry(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	reg := telemetry.NewRegistry()
	ds.Store.SetTelemetry(reg)
	rec := explain.New(0, nil)

	var s *Session
	paused := make(chan struct{}, 1)
	n := 0
	s = New(ds.Store, core.Options{Telemetry: reg, Explain: rec, OnUpdate: func(u graph.Update) {
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
	if got := pauseSpans(rec); got != 1 {
		t.Fatalf("trace has %d session.pause spans, want 1", got)
	}
}

// TestSessionStopEndsPauseSpan ensures a session stopped while paused still
// shows its pause in the trace: the run's end closes it.
func TestSessionStopEndsPauseSpan(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	reg := telemetry.NewRegistry()
	rec := explain.New(0, nil)

	var s *Session
	paused := make(chan struct{}, 1)
	s = New(ds.Store, core.Options{Telemetry: reg, Explain: rec, OnUpdate: func(graph.Update) {
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
	if got := pauseSpans(rec); got != 1 {
		t.Fatalf("stop while paused: trace has %d session.pause spans, want 1", got)
	}
	if got := reg.Snapshot().Counters[telemetry.MetricSessionResumes]; got != 0 {
		t.Fatalf("stop is not a resume: resumes counter = %d", got)
	}
}

// TestSessionPauseAfterStopEndsPauseSpan forces a Pause after the Stop that
// ends the run. Both come from an OnUpdate callback, so the order is the
// program's, not the scheduler's; the run ends at the next window boundary
// and its end must close the pause.
func TestSessionPauseAfterStopEndsPauseSpan(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	rec := explain.New(0, nil)

	var s *Session
	first := true
	s = New(ds.Store, core.Options{Telemetry: telemetry.NewRegistry(), Explain: rec, OnUpdate: func(graph.Update) {
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
	if got := pauseSpans(rec); got != 1 {
		t.Fatalf("trace has %d session.pause spans, want the one the late Pause opened", got)
	}
}
