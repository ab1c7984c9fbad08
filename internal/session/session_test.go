package session

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/graph"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/workload"
)

// pauseAtFirstUpdate returns an OnUpdate callback that requests a pause of
// *s at the first update only — a later call would pause the run again after
// the test resumed it — and a channel closed once that pause is requested.
func pauseAtFirstUpdate(s **Session) (func(graph.Update), <-chan struct{}) {
	var once sync.Once
	paused := make(chan struct{})
	return func(graph.Update) {
		once.Do(func() {
			(*s).Pause()
			close(paused)
		})
	}, paused
}

func dataset(t testing.TB) *workload.Dataset {
	t.Helper()
	ds, err := workload.Generate(workload.Config{Seed: 9, Hosts: 4, Days: 3, Density: 0.4}, simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSessionLifecycle(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)

	s := New(ds.Store, core.Options{})
	if _, err := s.Wait(); err == nil {
		t.Fatal("Wait before Start must fail")
	}
	if s.Graph() != nil {
		t.Fatal("Graph before Start must be nil")
	}
	if err := s.Start(atk.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(atk.Scripts[0], &alert); err == nil {
		t.Fatal("double Start must fail")
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() < 10 {
		t.Fatalf("suspiciously small graph: %d", res.Graph.NumEdges())
	}
	times := s.UpdateTimes()
	if got := len(times); got != res.Updates {
		t.Fatalf("recorded %d updates, executor reported %d", got, res.Updates)
	}
	for i := 1; i < len(times); i++ {
		if times[i].Before(times[i-1]) {
			t.Fatal("update times not monotone")
		}
	}
}

func TestStartValidatesScriptAndAlert(t *testing.T) {
	ds := dataset(t)
	alert, _ := ds.Store.EventByID(ds.Attacks[0].AlertID)
	s := New(ds.Store, core.Options{})
	if err := s.Start("this is not bdl", &alert); err == nil {
		t.Fatal("bad script must fail")
	}
	if err := s.Start(`backward ip a[dst_ip = "9.9.9.9"] -> *`, &alert); err == nil {
		t.Fatal("mismatched alert must fail")
	}
	// FindStart path: no alert given, locate by script.
	if err := s.Start(ds.Attacks[0].Scripts[0], nil); err != nil {
		t.Fatalf("FindStart path: %v", err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestInteractiveRefinement replays the pause -> edit -> resume loop with a
// filter change (Resume action).
func TestInteractiveRefinement(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0] // phishing: v1 basic, v2 +dll filter, v3 +findstr
	alert, _ := ds.Store.EventByID(atk.AlertID)

	var s *Session
	paused := make(chan struct{}, 1)
	n := 0
	s = New(ds.Store, core.Options{OnUpdate: func(u graph.Update) {
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
	action, err := s.UpdateScript(atk.Scripts[1])
	if err != nil {
		t.Fatal(err)
	}
	if action != refiner.Resume {
		t.Fatalf("adding a where filter: action = %v, want resume", action)
	}
	s.Resume()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// No dll files may have been explored after the filter landed... the
	// ones found before it remain; at minimum the run finished.
	if res == nil || res.Graph == nil {
		t.Fatal("no result")
	}
}

func TestUpdateScriptRepropagate(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	var s *Session
	onUpdate, paused := pauseAtFirstUpdate(&s)
	s = New(ds.Store, core.Options{OnUpdate: onUpdate})
	if err := s.Start(atk.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	<-paused
	// Add an intermediate point: same start, so Repropagate.
	mid := strings.Replace(atk.Scripts[0], "] -> *", `] -> proc j[exename = "java.exe"] -> *`, 1)
	action, err := s.UpdateScript(mid)
	if err != nil {
		t.Fatal(err)
	}
	if action != refiner.Repropagate {
		t.Fatalf("action = %v, want repropagate", action)
	}
	s.Resume()
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateScriptRestart(t *testing.T) {
	ds := dataset(t)
	a1, a2 := ds.Attacks[0], ds.Attacks[2] // phishing -> shellshock
	alert, _ := ds.Store.EventByID(a1.AlertID)
	var s *Session
	onUpdate, paused := pauseAtFirstUpdate(&s)
	s = New(ds.Store, core.Options{OnUpdate: onUpdate})
	if err := s.Start(a1.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	<-paused
	action, err := s.UpdateScript(a2.Scripts[0])
	if err != nil {
		t.Fatal(err)
	}
	if action != refiner.Restart {
		t.Fatalf("action = %v, want restart", action)
	}
	s.Resume() // release the paused loop so the stop can take effect
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The final graph must belong to the NEW starting point: its alert
	// destination is the shellshock socket, not the phishing one.
	newAlert, _ := ds.Store.EventByID(a2.AlertID)
	if res.Graph.Start().ID != newAlert.ID {
		t.Fatalf("graph start = event %d, want %d", res.Graph.Start().ID, newAlert.ID)
	}
}

func TestFinalizeWritesDOT(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	out := filepath.Join(t.TempDir(), "result.dot")
	script := strings.ReplaceAll(atk.Scripts[len(atk.Scripts)-1], `"./result.dot"`, `"`+strings.ReplaceAll(out, `\`, `/`)+`"`)
	s := New(ds.Store, core.Options{})
	if err := s.Start(script, &alert); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "digraph aptrace") {
		t.Fatal("DOT output malformed")
	}
}

func TestFinalizePrunesIntermediates(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	// Final phishing script with an explicit intermediate on java.exe.
	script := strings.Replace(atk.Scripts[len(atk.Scripts)-1], "] -> *", `] -> proc j[exename = "java.exe"] -> *`, 1)
	s := New(ds.Store, core.Options{})
	if err := s.Start(script, &alert); err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	before := res.Graph.NumEdges()
	removed, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Log("nothing pruned (acceptable when everything lies on chain paths)")
	}
	if res.Graph.NumEdges() != before-removed {
		t.Fatalf("edge accounting: %d != %d - %d", res.Graph.NumEdges(), before, removed)
	}
}

func TestSessionRecordsForTableII(t *testing.T) {
	ds := dataset(t)
	alert, _ := ds.Store.EventByID(ds.Attacks[0].AlertID)
	s := New(ds.Store, core.Options{})
	if err := s.Start(ds.Attacks[0].Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(); err != nil {
		t.Fatal(err)
	}
	times := s.UpdateTimes()
	if len(times) < 2 {
		t.Skip("not enough updates on this tiny dataset")
	}
	// Simulated clock: deltas must be non-negative and mostly small.
	for i := 1; i < len(times); i++ {
		if d := times[i].Sub(times[i-1]); d < 0 {
			t.Fatal("negative delta")
		}
	}
	_ = event.NoObj
}

// TestRunLogRecordsInvestigation holds the session to its one record of an
// investigation: the run log carries every analyst action — run start, pause,
// the script update with the Refiner's decision and delta, resume, finalize —
// and the run's end with its stop reason.
func TestRunLogRecordsInvestigation(t *testing.T) {
	ds := dataset(t)
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)

	rec := explain.New(0, nil)
	var s *Session
	onUpdate, paused := pauseAtFirstUpdate(&s)
	s = New(ds.Store, core.Options{OnUpdate: onUpdate, Explain: rec})
	if err := s.Start(atk.Scripts[0], &alert); err != nil {
		t.Fatal(err)
	}
	<-paused
	out := strings.ReplaceAll(filepath.Join(t.TempDir(), "result.dot"), `\`, `/`)
	if action, err := s.UpdateScript(strings.ReplaceAll(atk.Scripts[1], `"./result.dot"`, `"`+out+`"`)); err != nil || action != refiner.Resume {
		t.Fatalf("update: %v %v", action, err)
	}
	s.Resume()
	res, err := s.Wait()
	if err != nil {
		t.Fatal(err)
	}
	removed, err := s.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	var kinds []string
	for _, r := range rec.Records() {
		switch r.Kind {
		case explain.KindRunStart, explain.KindPause, explain.KindResume:
		case explain.KindPlanUpdate:
			if r.Clause != refiner.Resume.String() || r.Detail == "" {
				t.Errorf("plan update record = %+v, want the resume decision and a delta", r)
			}
		case explain.KindFinalize:
			if r.Card != removed {
				t.Errorf("finalize record prunes %d edges, Finalize said %d", r.Card, removed)
			}
		default:
			continue
		}
		kinds = append(kinds, r.Kind.String())
	}
	if got, want := strings.Join(kinds, ","), "run-start,pause,plan-update,resume,finalize"; got != want {
		t.Errorf("analyst actions in the log = %s, want %s", got, want)
	}
	events, _ := rec.Events()
	var ends []string
	for _, ev := range events {
		if ev.Kind == explain.EvRun {
			ends = append(ends, ev.Detail)
		}
	}
	if len(ends) != 1 || ends[0] != res.Reason.String() {
		t.Errorf("run spans carry stop reasons %q, want [%q]", ends, res.Reason)
	}
}
