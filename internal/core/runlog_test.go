package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
)

// logRun executes one run into a log of the given ring capacity, bound as a
// lane whose stall limit (half a second) the fixtures' slower windows exceed. After pauseAt updates — if positive — a session pauses the run,
// says so in the log as session.Session does, and resumes it.
func logRun(t *testing.T, s *store.Store, plan *refiner.Plan, alert event.Event, capacity, pauseAt int) *explain.Recorder {
	t.Helper()
	v, err := s.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	log := newLane("run", capacity, 500*time.Millisecond, nil)
	var x *Executor
	updates := 0
	resumed := make(chan struct{})
	x, err = New(v, plan, Options{Windows: 4, Explain: log, OnUpdate: func(Update) {
		if updates++; updates != pauseAt {
			return
		}
		x.Pause() // on the run goroutine: parks when this window ends
		go func() {
			defer close(resumed)
			x.Pause() // returns once the loop has parked
			log.Pause()
			v.Clock().(*simclock.Simulated).Advance(90 * time.Second) // the analyst thinks
			log.Resume()
			x.Resume()
		}()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunUnchecked(alert); err != nil {
		t.Fatal(err)
	}
	if pauseAt > 0 {
		if updates < pauseAt {
			t.Fatalf("run ended after %d updates, before the pause", updates)
		}
		<-resumed
	}
	return log
}

// TestTraceAndExplainAgree holds the two views of a run to their one source.
// Every window.query span of the trace is one window-queried record (same
// object, range and rows, ending at the record's stamp), every graph.update
// instant the first added edge at that instant, every pause span a pause and
// resume record pair, and every stall names its offending query by the
// sequence number of a record EXPLAIN can show (or has counted as dropped) —
// which no time-interval join between two stores could promise.
func TestTraceAndExplainAgree(t *testing.T) {
	back, backAlert := fixture(t, nil, 60)
	fwd, fwdAlert := forwardFixture(t)
	chain, err := refiner.ParseAndCompile(stampChain)
	if err != nil {
		t.Fatal(err)
	}
	_, sharded := shardedPair(t, 1004, 2500, 4)
	for _, c := range []struct {
		name    string
		st      *store.Store
		plan    *refiner.Plan
		alert   event.Event
		pauseAt int
	}{
		{"backward", back, wildcardPlan(t, stampWhere), backAlert, 4},
		{"chain", back, chain, backAlert, 0},
		{"forward", fwd, forwardPlan(t, stampWhere), fwdAlert, 2},
		{"sharded", sharded, wildcardPlan(t, ""), sharded.RandomEvents(1, rand.New(rand.NewSource(5)))[0], 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			log := logRun(t, c.st, c.plan, c.alert, 0, c.pauseAt)
			checkViewsAgree(t, log, c.alert)
		})
	}
	t.Run("past capacity", runLogOverflow)
}

// checkViewsAgree maps the events of log back to its records.
func checkViewsAgree(t *testing.T, log *explain.Recorder, alert event.Event) {
	t.Helper()
	recs := log.Records()
	events, dropped := log.Events()
	var queried, pauses, resumes []explain.Record
	var updateAt []time.Time // the first added edge of every instant, the alert's aside
	for _, r := range recs {
		switch r.Kind {
		case explain.KindWindowQueried:
			queried = append(queried, r)
		case explain.KindPause:
			pauses = append(pauses, r)
		case explain.KindResume:
			resumes = append(resumes, r)
		case explain.KindEdgeAdded:
			if r.Event != alert.ID && (len(updateAt) == 0 || !updateAt[len(updateAt)-1].Equal(r.At)) {
				updateAt = append(updateAt, r.At)
			}
		}
	}
	var queries, updates, pauseSpans int
	for _, ev := range events {
		switch ev.Kind {
		case explain.EvQuery:
			if queries == len(queried) {
				t.Fatalf("window.query span %d has no window-queried record", queries)
			}
			r := queried[queries]
			queries++
			if r.Node != ev.Obj || r.Begin != ev.Begin || r.Finish != ev.Finish || r.Card != ev.Rows || ev.Start.After(r.At) || !ev.Start.Add(ev.Dur).Equal(r.At) {
				t.Fatalf("window.query span %+v is not record %+v", ev, r)
			}
		case explain.EvUpdate:
			if updates == len(updateAt) || !updateAt[updates].Equal(ev.Start) {
				t.Fatalf("graph.update %d at %s is not the first added edge of an instant (%d such instants)", updates, ev.Start, len(updateAt))
			}
			updates++
		case explain.EvPause:
			if pauseSpans == len(pauses) || pauseSpans == len(resumes) ||
				!pauses[pauseSpans].At.Equal(ev.Start) || !resumes[pauseSpans].At.Equal(ev.Start.Add(ev.Dur)) {
				t.Fatalf("pause span %d %+v has no pause/resume record pair", pauseSpans, ev)
			}
			pauseSpans++
		}
	}
	if queries != len(queried) || updates != len(updateAt) || pauseSpans != len(pauses) {
		t.Fatalf("trace has %d queries, %d updates, %d pauses; the records say %d, %d, %d",
			queries, updates, pauseSpans, len(queried), len(updateAt), len(pauses))
	}
	prog := log.Progress()
	if queries == 0 || updates == 0 || len(prog.Stalls) == 0 {
		t.Fatalf("fixture no longer exercises queries, updates and stalls: %d, %d, %d", queries, updates, len(prog.Stalls))
	}
	if prog.Queries != queries || prog.Events != len(events) || prog.Dropped != int(dropped) {
		t.Fatalf("Progress() = %+v, the events read back say %d queries of %d events, %d records dropped", prog, queries, len(events), dropped)
	}
	checkStallSeqs(t, log)
}

// checkStallSeqs: every stall that names an offending query names it by the
// sequence number of its window-queried record, retained or counted as
// dropped.
func checkStallSeqs(t *testing.T, log *explain.Recorder) {
	t.Helper()
	bySeq := make(map[uint64]explain.Record)
	for _, r := range log.Records() {
		bySeq[r.Seq] = r
	}
	_, dropped := log.Stats()
	for _, s := range log.Progress().Stalls {
		if !s.HasWindow {
			continue
		}
		r, ok := bySeq[s.Seq]
		if !ok && s.Seq >= dropped {
			t.Fatalf("stall %+v names a record the log never had", s)
		}
		if ok && (r.Kind != explain.KindWindowQueried || r.Node != s.Obj || r.Begin != s.Begin || r.Finish != s.Finish || r.Card != s.Rows) {
			t.Fatalf("stall %+v names record %+v", s, r)
		}
	}
}

// runLogOverflow drives a run past the capacity of its log's ring: both
// views report the same dropped count — the decision dump's and the trace's
// — the trace still shows every stall and the run's span, and the run's
// progress (events, updates, queries, worst gap, stalls) is what the same run
// reports with a ring that never wraps.
func runLogOverflow(t *testing.T) {
	s, alert := fixture(t, nil, 400)
	plan := wildcardPlan(t, stampWhere)
	whole := logRun(t, s, plan, alert, 1<<20, 5)
	log := logRun(t, s, plan, alert, 64, 5)

	emitted, dropped := log.Stats()
	if all, none := whole.Stats(); emitted != all || none != 0 || dropped != emitted-64 {
		t.Fatalf("Stats() = %d emitted, %d dropped; the unbounded ring has %d, %d", emitted, dropped, all, none)
	}
	var trace bytes.Buffer
	if err := explain.WriteTrace(&trace, []*explain.Recorder{log}); err != nil {
		t.Fatal(err)
	}
	if err := explain.Validate(trace.Bytes()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Args struct {
				Dropped uint64 `json:"dropped_records"`
			}
		}
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var traceDropped uint64
	var stalls, runs int
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "thread_name":
			traceDropped = ev.Args.Dropped
		case "slo.stall":
			stalls++
		case "run":
			runs++
		}
	}
	rep := explain.NewReport(500*time.Millisecond, []*explain.Recorder{log})
	if traceDropped != dropped || rep.Dropped != int(dropped) {
		t.Fatalf("the trace says %d records dropped, the SLO report %d, EXPLAIN %d", traceDropped, rep.Dropped, dropped)
	}
	if stalls != rep.StallCount || runs != 1 {
		t.Fatalf("the trace past capacity has %d stalls and %d run spans; the report counts %d stalls of one run", stalls, runs, rep.StallCount)
	}

	got, want := log.Progress(), whole.Progress()
	if len(want.Stalls) == 0 || want.Updates == 0 {
		t.Fatalf("fixture no longer stalls and updates: %+v", want)
	}
	got.Dropped = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Progress() past capacity = %+v\nwith an unbounded ring %+v", got, want)
	}
	checkStallSeqs(t, log)
}
