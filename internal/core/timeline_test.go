package core

import (
	"bytes"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/simclock"
	"aptrace/internal/telemetry"
)

// defaultLimit is the stall limit of the default SLO gap target, which the
// triage daemon binds every run's log with.
const defaultLimit = explain.DefaultStallFactor * explain.DefaultGapTarget

// newLane returns a fresh log of the given ring capacity (0 = default) made
// with reg and bound as lane 1, "name", whose watchdog stalls past limit.
func newLane(name string, capacity int, limit time.Duration, reg *telemetry.Registry) *explain.Recorder {
	rec := explain.New(capacity, reg)
	rec.Bind(1, name, limit)
	return rec
}

// edgeSet collects a result's edge IDs for order-insensitive comparison.
func edgeSet(evs []event.Event) map[event.EventID]bool {
	m := make(map[event.EventID]bool, len(evs))
	for _, e := range evs {
		m[e.ID] = true
	}
	return m
}

// TestTimelineZeroEffect is the acceptance bar for the profiler: attaching
// a lane must not change the produced graph, the modeled elapsed time, or
// the window count — the recorder only ever reads the clock.
func TestTimelineZeroEffect(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	st, alert := fixture(t, clk, 200)

	run := func(lane *explain.Recorder) *Result {
		clkR := simclock.NewSimulated(time.Time{})
		v, err := st.View(clkR)
		if err != nil {
			t.Fatal(err)
		}
		x, err := New(v, wildcardPlan(t, ""), Options{Windows: 4, Explain: lane})
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.RunUnchecked(alert)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)
	profiled := run(newLane("run", 0, defaultLimit, nil))

	if got, want := edgeSet(profiled.Graph.Edges()), edgeSet(plain.Graph.Edges()); len(got) != len(want) {
		t.Fatalf("edge count diverged: %d vs %d", len(got), len(want))
	} else {
		for id := range want {
			if !got[id] {
				t.Fatalf("edge %d missing from profiled run", id)
			}
		}
	}
	if profiled.Elapsed != plain.Elapsed {
		t.Errorf("modeled time diverged: %v vs %v", profiled.Elapsed, plain.Elapsed)
	}
	if profiled.Windows != plain.Windows {
		t.Errorf("window count diverged: %d vs %d", profiled.Windows, plain.Windows)
	}
}

// TestTimelineRecordsRunLifecycle checks the executor's emission points:
// a profiled run yields a run span, window enqueues, cost-attributed
// queries, and update instants, and the exported trace passes schema
// validation.
func TestTimelineRecordsRunLifecycle(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	st, alert := fixture(t, clk, 200)
	v, err := st.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	lane := newLane("run", 0, defaultLimit, nil)
	x, err := New(v, wildcardPlan(t, ""), Options{Windows: 4, Explain: lane})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunUnchecked(alert); err != nil {
		t.Fatal(err)
	}

	lr := lane.Progress()
	if lr.Queries == 0 {
		t.Error("no queries recorded")
	}
	if lr.Updates == 0 {
		t.Error("no updates recorded")
	}
	if lr.Events == 0 {
		t.Error("no events recorded")
	}

	rep := explain.NewReport(explain.DefaultGapTarget, []*explain.Recorder{lane})
	if rep.Queries != lr.Queries {
		t.Errorf("SLO report queries = %d, lane says %d", rep.Queries, lr.Queries)
	}

	var buf bytes.Buffer
	if err := explain.WriteTrace(&buf, []*explain.Recorder{lane}); err != nil {
		t.Fatal(err)
	}
	if err := explain.Validate(buf.Bytes()); err != nil {
		t.Fatalf("trace schema: %v", err)
	}
}

// TestTimelineStallOnStarvedUpdates starves the graph of updates — one
// monolithic window over a noise-heavy store, no re-splitting — and checks
// the watchdog fires: a stall with the offending query attached, and the
// aptrace_slo_stall_total counter incremented.
func TestTimelineStallOnStarvedUpdates(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	st, alert := fixture(t, clk, 300)
	v, err := st.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	// A nanosecond limit makes any modeled retrieval latency a stall:
	// the monolithic hot.log query must trip it.
	lane := newLane("starved", 0, time.Nanosecond, reg)
	x, err := New(v, wildcardPlan(t, ""), Options{Windows: 1, NoSplit: true, Explain: lane})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunUnchecked(alert); err != nil {
		t.Fatal(err)
	}

	lr := lane.Progress()
	if len(lr.Stalls) == 0 {
		t.Fatal("watchdog did not fire on a starved run")
	}
	if got := reg.Counter(telemetry.MetricSLOStalls).Value(); got == 0 {
		t.Errorf("%s = 0, want > 0", telemetry.MetricSLOStalls)
	}
	offender := false
	for _, s := range lr.Stalls {
		if s.HasWindow && s.Rows > 0 {
			offender = true
		}
	}
	if !offender {
		t.Error("no stall carries an offending query with rows")
	}
}
