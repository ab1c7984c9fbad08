package core

import (
	"math"
	"testing"
	"time"

	"aptrace/internal/explain"
	"aptrace/internal/graph"
	"aptrace/internal/simclock"
	"aptrace/internal/stats"
	"aptrace/internal/telemetry"
)

// TestExecutorTelemetryMatchesRecordedUpdates runs an instrumented analysis
// and cross-checks every published metric against the ground truth the run
// itself recorded: the inter-update-gap histogram must agree with the
// deltas of the distinct update timestamps (Table II's statistic), the
// executor counters must agree with the Result, and — with a run log
// attached — with the log's trace.
func TestExecutorTelemetryMatchesRecordedUpdates(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	st, alert := fixture(t, clk, 400)
	reg := telemetry.NewRegistry()
	st.SetTelemetry(reg)

	var times []time.Time
	x, err := New(st, wildcardPlan(t, ""), Options{
		Telemetry: reg,
		OnUpdate:  func(u graph.Update) { times = append(times, u.At) },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates == 0 {
		t.Fatal("run produced no updates; fixture broken")
	}

	snap := reg.Snapshot()

	// The gap histogram must match the session-recorded timestamp series.
	deltas := stats.Deltas(stats.DistinctTimes(times))
	gap := snap.Histograms[telemetry.MetricExecUpdateGap]
	if gap.Count != int64(len(deltas)) {
		t.Fatalf("gap histogram count = %d, want %d distinct-update deltas", gap.Count, len(deltas))
	}
	var wantSum float64
	for _, d := range deltas {
		wantSum += d.Seconds()
	}
	if math.Abs(gap.Sum-wantSum) > 1e-6*math.Max(1, wantSum) {
		t.Fatalf("gap histogram sum = %gs, want %gs", gap.Sum, wantSum)
	}

	// Executor counters agree with the result.
	if got := snap.Counters[telemetry.MetricExecWindows]; got != int64(res.Windows) {
		t.Fatalf("windows counter = %d, Result.Windows = %d", got, res.Windows)
	}
	if snap.Counters[telemetry.MetricExecResplits] == 0 {
		t.Fatal("heavy-hitter fixture must force at least one re-split")
	}
	if snap.Gauges[telemetry.MetricExecQueueDepth] != 0 {
		t.Fatalf("drained run must leave queue depth 0, got %d",
			snap.Gauges[telemetry.MetricExecQueueDepth])
	}

	// Store counters agree with the store's own accounting (the acceptance
	// criterion for the /metrics endpoint).
	s := st.Stats()
	if got := snap.Counters[telemetry.MetricStoreRowsExamined]; got != s.RowsExamined {
		t.Fatalf("rows examined counter = %d, store.Stats() = %d", got, s.RowsExamined)
	}
	if got := snap.Counters[telemetry.MetricStoreQueries]; got != s.Queries {
		t.Fatalf("queries counter = %d, store.Stats() = %d", got, s.Queries)
	}

	// With a lane-bound log beside the registry, as the triage daemon runs
	// it, the trace has one window.query per window counted and one
	// window.resplit per re-split.
	st, alert = fixture(t, simclock.NewSimulated(time.Time{}), 400)
	reg = telemetry.NewRegistry()
	rec := newLane("run", 0, defaultLimit, nil)
	if x, err = New(st, wildcardPlan(t, ""), Options{Telemetry: reg, Explain: rec}); err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunUnchecked(alert); err != nil {
		t.Fatal(err)
	}
	evs, _ := rec.Events()
	var queries, resplits int64
	for _, ev := range evs {
		switch ev.Kind {
		case explain.EvQuery:
			queries++
		case explain.EvResplit:
			resplits++
		}
	}
	snap = reg.Snapshot()
	if want := snap.Counters[telemetry.MetricExecWindows]; queries != want {
		t.Fatalf("trace has %d window.query events, windows counter = %d", queries, want)
	}
	if want := snap.Counters[telemetry.MetricExecResplits]; resplits != want || resplits == 0 {
		t.Fatalf("trace has %d window.resplit events, resplits counter = %d", resplits, want)
	}
}

// TestResplitReusesEnqueueCardinality is the regression test for the
// redundant per-window recount: enqueue already counted every window for
// the empty-window prune, so the re-split check must ride on that estimate
// (ExecWindow.Card) and only one fresh count per re-split — pricing both
// halves — is allowed. On this fixed fixture the pre-fix executor performed
// 502 posting-list lookups and charged 84 store queries; carrying the
// estimate brings those to 413 and 79. The thresholds sit between the two
// so the test fails if the pop-time recount ever comes back.
func TestResplitReusesEnqueueCardinality(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	st, alert := fixture(t, clk, 400)
	reg := telemetry.NewRegistry()
	st.SetTelemetry(reg)
	x, err := New(st, wildcardPlan(t, ""), Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	lookups := snap.Counters[telemetry.MetricStorePostingHits] +
		snap.Counters[telemetry.MetricStorePostingMisses]
	if lookups == 0 {
		t.Fatal("fixture produced no posting lookups; telemetry broken")
	}
	if lookups > 460 {
		t.Fatalf("posting lookups = %d; the re-split check is recounting ranges the enqueue already counted", lookups)
	}
	if q := snap.Counters[telemetry.MetricStoreQueries]; q > 81 {
		t.Fatalf("charged queries = %d; empty re-split halves must be pruned, not queried", q)
	}

	// The saved counts must not change what the analysis finds.
	want := naiveClosure(st, alert)
	if res.Graph.NumEdges() != len(want) {
		t.Fatalf("graph has %d edges, closure %d", res.Graph.NumEdges(), len(want))
	}
}

// TestExecutorNilTelemetryUnchanged pins the disabled path: a run with no
// registry must behave identically (same result, same simulated elapsed
// time) to an instrumented run over the same fixture.
func TestExecutorNilTelemetryUnchanged(t *testing.T) {
	run := func(reg *telemetry.Registry) (*Result, time.Duration) {
		clk := simclock.NewSimulated(time.Time{})
		st, alert := fixture(t, clk, 400)
		if reg != nil {
			st.SetTelemetry(reg)
		}
		x, err := New(st, wildcardPlan(t, ""), Options{Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.RunUnchecked(alert)
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Elapsed
	}
	off, offElapsed := run(nil)
	on, onElapsed := run(telemetry.NewRegistry())
	if off.Updates != on.Updates || off.Windows != on.Windows ||
		off.Graph.NumEdges() != on.Graph.NumEdges() {
		t.Fatalf("telemetry changed the analysis: off=%+v on=%+v", off, on)
	}
	if offElapsed != onElapsed {
		t.Fatalf("telemetry perturbed simulated time: off=%v on=%v", offElapsed, onElapsed)
	}
}
