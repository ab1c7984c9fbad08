package explain

import (
	"strings"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/telemetry"
)

var t0 = time.Date(2019, 3, 2, 14, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return t0.Add(d) }

func TestWatchdogStallFires(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := &session{reg: reg}
	r := p.newLane("run", 0)
	r.RunStart(at(0), 7)
	r.Update(at(1 * time.Second))
	r.Update(at(10 * time.Second)) // 9 s gap > 3 s limit
	r.RunEnd(at(10*time.Second), "completed")

	lr := r.Stats()
	if len(lr.Stalls) != 1 {
		t.Fatalf("stalls = %d, want 1", len(lr.Stalls))
	}
	s := lr.Stalls[0]
	if !s.At.Equal(at(1 * time.Second)) {
		t.Errorf("stall At = %v, want %v", s.At, at(1*time.Second))
	}
	if s.Gap != 9*time.Second {
		t.Errorf("stall Gap = %v, want 9s", s.Gap)
	}
	if lr.WorstGap != 9*time.Second {
		t.Errorf("WorstGap = %v, want 9s", lr.WorstGap)
	}
	if got := reg.Counter(telemetry.MetricSLOStalls).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricSLOStalls, got)
	}
}

func TestWatchdogTimeToFirstUpdateCounts(t *testing.T) {
	p := &session{}
	r := p.newLane("run", 0)
	// A run that never updates must still stall: the anchor is RunStart.
	r.RunStart(at(0), 1)
	r.RunEnd(at(5*time.Second), "time budget exceeded")
	if got := len(r.Stats().Stalls); got != 1 {
		t.Fatalf("stalls = %d, want 1 (tail gap from RunStart)", got)
	}
}

func TestWatchdogWithinLimitNoStall(t *testing.T) {
	p := &session{}
	r := p.newLane("run", 0)
	r.RunStart(at(0), 1)
	for i := 1; i <= 10; i++ {
		r.Update(at(time.Duration(i) * time.Second)) // every gap exactly 1 s
	}
	r.RunEnd(at(10*time.Second), "completed")
	lr := r.Stats()
	if len(lr.Stalls) != 0 {
		t.Fatalf("stalls = %d, want 0", len(lr.Stalls))
	}
	if lr.WorstGap != time.Second {
		t.Errorf("WorstGap = %v, want 1s", lr.WorstGap)
	}
	if lr.Updates != 10 {
		t.Errorf("Updates = %d, want 10", lr.Updates)
	}
}

func TestSameInstantUpdatesCollapse(t *testing.T) {
	p := &session{}
	r := p.newLane("run", 0)
	r.RunStart(at(0), 1)
	// One retrieval lands many edges at one instant: a single update batch.
	r.Update(at(time.Second))
	r.Update(at(time.Second))
	r.Update(at(time.Second))
	r.RunEnd(at(2*time.Second), "completed")
	instants := 0
	for _, ev := range snapshotEvents(r) {
		if ev.Kind == EvUpdate {
			instants++
		}
	}
	if instants != 1 {
		t.Fatalf("distinct update events = %d, want 1", instants)
	}
}

func snapshotEvents(r *lane) []Event {
	evs, _ := r.Events()
	return evs
}

func TestPauseResetsWatchdogAnchor(t *testing.T) {
	p := &session{}
	r := p.newLane("session", 0)
	r.RunStart(at(0), 1)
	r.Update(at(time.Second))
	r.Pause(at(2 * time.Second))
	r.Resume(at(100 * time.Second)) // analyst thought for 98 s
	r.Update(at(101 * time.Second))
	r.RunEnd(at(101*time.Second), "completed")

	lr := r.Stats()
	if len(lr.Stalls) != 0 {
		t.Fatalf("stalls = %d, want 0: paused time must be forgiven", len(lr.Stalls))
	}
	var pause *Event
	for _, ev := range snapshotEvents(r) {
		if ev.Kind == EvPause {
			e := ev
			pause = &e
		}
	}
	if pause == nil {
		t.Fatal("no pause span recorded")
	}
	if pause.Dur != 98*time.Second {
		t.Errorf("pause Dur = %v, want 98s", pause.Dur)
	}
}

func TestRunEndClosesOpenPause(t *testing.T) {
	p := &session{}
	r := p.newLane("session", 0)
	r.RunStart(at(0), 1)
	r.Update(at(time.Second))
	r.Pause(at(2 * time.Second))
	r.RunEnd(at(4*time.Second), "abandoned")
	found := false
	for _, ev := range snapshotEvents(r) {
		if ev.Kind == EvPause && ev.Dur == 2*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatal("open pause not closed by RunEnd")
	}
}

func TestStallNamesHeaviestQuery(t *testing.T) {
	p := &session{}
	r := p.newLane("run", 0)
	r.RunStart(at(0), 1)
	r.Update(at(time.Second))
	// Two queries inside the gap; the second is heavier (more charged cost).
	r.ObserveQueryCost(10, 2, 5*time.Millisecond)
	r.Query(at(1100*time.Millisecond), at(1200*time.Millisecond), 3, 0, 100, 10)
	r.ObserveQueryCost(5000, 40, 2*time.Second)
	r.Query(at(2*time.Second), at(4*time.Second), 9, 100, 200, 5000)
	r.Update(at(10 * time.Second)) // 9 s gap: stall
	r.RunEnd(at(10*time.Second), "completed")

	lr := r.Stats()
	if len(lr.Stalls) != 1 {
		t.Fatalf("stalls = %d, want 1", len(lr.Stalls))
	}
	s := lr.Stalls[0]
	if !s.HasWindow {
		t.Fatal("stall has no offending window")
	}
	if s.Obj != 9 || s.Rows != 5000 || s.Cost != 2*time.Second {
		t.Errorf("offender = obj %d rows %d cost %v, want obj 9 rows 5000 cost 2s", s.Obj, s.Rows, s.Cost)
	}
}

func TestQueryClaimsPendingCostOnce(t *testing.T) {
	p := &session{}
	r := p.newLane("run", 0)
	r.ObserveQueryCost(100, 4, time.Second)
	r.Query(at(0), at(time.Second), 1, 0, 10, 100)
	r.Query(at(2*time.Second), at(3*time.Second), 2, 10, 20, 50)
	evs := snapshotEvents(r)
	if evs[0].Cost != time.Second || evs[0].Buckets != 4 {
		t.Errorf("first query cost=%v buckets=%d, want 1s/4", evs[0].Cost, evs[0].Buckets)
	}
	if evs[1].Cost != 0 || evs[1].Buckets != 0 {
		t.Errorf("second query cost=%v buckets=%d, want 0/0 (already claimed)", evs[1].Cost, evs[1].Buckets)
	}
}

func TestLaneEventCapCountsDropsKeepsStalls(t *testing.T) {
	p := &session{}
	r := p.newLane("run", 2) // a ring of two records: the run start and ten windows overflow it
	r.RunStart(at(0), 1)
	for i := 0; i < 10; i++ {
		r.Enqueued(at(time.Duration(i)*time.Millisecond), 1, 0, 10, 5)
	}
	r.RunEnd(at(20*time.Second), "completed") // tail gap: stall
	lr := r.Stats()
	if lr.Events != 12 {
		t.Errorf("Events = %d, want 12 (the run's ten windows, the stall, the run)", lr.Events)
	}
	if lr.Dropped != 9 {
		t.Errorf("Dropped = %d, want 9", lr.Dropped)
	}
	if len(lr.Stalls) != 1 {
		t.Errorf("stalls = %d, want 1: the stall list must survive truncation", len(lr.Stalls))
	}
	if evs := snapshotEvents(r); len(evs) != 4 {
		t.Errorf("%d events read back, want 4 (the stall, the run, the two retained windows)", len(evs))
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	r := &lane{} // no log
	r.RunStart(at(0), 1)
	r.RunEnd(at(0), "x")
	r.Update(at(0))
	r.Enqueued(at(0), 1, 0, 1, 1)
	r.Resplit(at(0), 1, 0, 1, 1)
	r.Query(at(0), at(0), 1, 0, 1, 1)
	r.ObserveQueryCost(1, 1, time.Second)
	r.Abandoned(at(0), 1, 0, 1, "x")
	r.Pause(at(0))
	r.Resume(at(0))
	r.PlanUpdate(at(0), "x")
	if r.LaneID() != 0 {
		t.Error("nil LaneID != 0")
	}
	if lr := r.Stats(); lr.Events != 0 {
		t.Error("nil Stats not zero")
	}
}

func TestProfilerReportAggregates(t *testing.T) {
	p := &session{}
	a := p.newLane("a", 0)
	b := p.newLane("b", 0)
	a.RunStart(at(0), 1)
	a.Update(at(time.Second))
	a.RunEnd(at(time.Second), "completed")
	b.RunStart(at(0), 2)
	b.Update(at(10 * time.Second)) // stall
	b.RunEnd(at(10*time.Second), "completed")

	rep := NewReport(testTarget, p.lanes)
	if len(rep.Lanes) != 2 {
		t.Fatalf("lanes = %d, want 2", len(rep.Lanes))
	}
	if rep.Updates != 2 || rep.StallCount != 1 {
		t.Errorf("updates=%d stalls=%d, want 2/1", rep.Updates, rep.StallCount)
	}
	if rep.WorstLane != "b" || rep.WorstGap != 10*time.Second {
		t.Errorf("worst = %q/%v, want b/10s", rep.WorstLane, rep.WorstGap)
	}

	var sb strings.Builder
	rep.Print(&sb, nil)
	out := sb.String()
	for _, want := range []string{"SLO report", "stalls: 1", "[b] gap 10s"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

func TestCorrelateStall(t *testing.T) {
	s := Stall{At: at(time.Second), Gap: 9 * time.Second, Obj: 9, HasWindow: true}
	log := New(0, nil)
	log.stage1(at(0), Decision{Kind: KindRunStart}, "", "") // seq 0
	for _, q := range []struct {
		at   time.Duration
		node event.ObjID
		card int32
	}{
		{500 * time.Millisecond, 9, 100}, // seq 1: before the gap
		{2 * time.Second, 4, 9000},       // seq 2: in gap, wrong obj
		{3 * time.Second, 9, 50},         // seq 3: in gap, offender obj
		{11 * time.Second, 9, 99},        // seq 4: after the gap
	} {
		log.stage1(at(q.at), Decision{Kind: KindWindowQueried, Node: q.node, Card: q.card}, "", "")
	}
	got, ok := CorrelateStall(s, log)
	if !ok {
		t.Fatal("no record correlated")
	}
	if got.Seq != 3 {
		t.Errorf("correlated seq = %d, want 3 (offender-object record preferred)", got.Seq)
	}
	if _, ok := CorrelateStall(s, nil); ok {
		t.Error("nil records must not correlate")
	}
}
