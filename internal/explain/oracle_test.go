package explain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
	"aptrace/internal/pages"
	"aptrace/internal/simclock"
	"aptrace/internal/telemetry"
)

// TestStagedRecorderMatchesOracle drives random emission sequences through
// the recorder the way the executor does — run-loop records staged and handed
// over a flush at a time, memo verdicts written between two flushes from
// inside a charging call, pauses, resumes and plan updates written by another
// goroutine while the loop waits with an empty stage — and through the
// per-record ring the recorder was before (preallocRing, fed whole Records),
// with the ring below, at and beyond capacity. Records (sequence numbers and
// stamps included), Stats, the telemetry counters and an Explain answer must
// agree, at the end and wherever a reader could look in between.
func TestStagedRecorderMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, capacity := range []int{5, 64, 4*pages.Len + 3} {
			for _, n := range []int{capacity - 1, capacity, 3*capacity + 2} {
				t.Run(fmt.Sprintf("seed%d/cap%d/n%d", seed, capacity, n), func(t *testing.T) {
					driveRecorder(t, seed, capacity, n)
				})
			}
		}
	}
}

func driveRecorder(t *testing.T, seed int64, capacity, n int) {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2019, 3, 2, 14, 0, 0, 0, time.UTC)
	clk := simclock.NewSimulated(start)
	reg := telemetry.NewRegistry()
	r := New(capacity, reg)
	r.Attach(clk, nil)
	want := preallocRing{ring: make([]Record, 0, capacity)}
	add := func(rec Record) {
		rec.Seq, rec.At = want.seq, clk.Now()
		want.add(rec)
	}

	stage := Stage{Base: start}
	flush := func() {
		r.Consume(&stage)
		stage.Reset()
	}
	check := func(when string) {
		t.Helper()
		if got := r.Records(); !sameRecords(got, want.records()) {
			t.Fatalf("%s: Records() = %+v\nwant %+v", when, got, want.records())
		}
		emitted, dropped := r.Stats()
		if emitted != want.seq || dropped != want.dropped {
			t.Fatalf("%s: Stats() = %d,%d, want %d,%d", when, emitted, dropped, want.seq, want.dropped)
		}
		if got := reg.Counter(telemetry.MetricExplainRecords).Value(); got != int64(want.seq) {
			t.Fatalf("%s: %s = %d, want %d", when, telemetry.MetricExplainRecords, got, want.seq)
		}
		if got := reg.Counter(telemetry.MetricExplainDropped).Value(); got != int64(want.dropped) {
			t.Fatalf("%s: %s = %d, want %d", when, telemetry.MetricExplainDropped, got, want.dropped)
		}
	}
	// aside runs f on another goroutine while this one — the run loop —
	// waits with an empty stage, as it does parked or inside OnUpdate.
	aside := func(f func()) {
		flush()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		<-done
	}
	hosts := []string{"ws1", "ws2", "db-7"}
	clauses := []string{`proc.exename != "cmd.exe"`, "hop <= 3"}

	for int(want.seq) < n {
		if rng.Intn(3) == 0 {
			clk.Advance(time.Duration(rng.Intn(900)) * time.Millisecond)
		}
		id, obj, peer := event.EventID(rng.Intn(1000)), event.ObjID(rng.Intn(7)), event.ObjID(rng.Intn(7))
		wb := int64(rng.Intn(5000))
		wf := wb + int64(rng.Intn(900))
		note := func(kind Kind) *Decision {
			return stage.Add(kind, int64(clk.Now().Sub(start)))
		}
		switch k := rng.Intn(24); k {
		case 0:
			d := note(KindRunStart)
			d.Event, d.Node, d.Begin, d.Finish = id, obj, wb, wf
			add(Record{Kind: KindRunStart, Event: id, Node: obj, Begin: wb, Finish: wf})
		case 1, 2, 3:
			hop, boost := rng.Intn(12), rng.Intn(2)
			d := note(KindEdgeAdded)
			d.Event, d.Node, d.Peer, d.Hop, d.Begin, d.Finish, d.Boost = id, obj, peer, int32(hop), wb, wf, int8(boost)
			add(Record{Kind: KindEdgeAdded, Event: id, Node: obj, Peer: peer, Hop: hop, Begin: wb, Finish: wf, Boost: boost})
		case 4, 5:
			d := note(KindEdgeDedup)
			d.Event, d.Node = id, obj
			add(Record{Kind: KindEdgeDedup, Event: id, Node: obj})
		case 6:
			d := note(KindEdgeDropped)
			d.Event, d.Node, d.Peer = id, obj, peer
			add(Record{Kind: KindEdgeDropped, Event: id, Node: obj, Peer: peer})
		case 7:
			host := hosts[rng.Intn(len(hosts))]
			d := note(KindEdgeHostFiltered)
			d.Event, d.Node, d.Peer, d.Detail = id, obj, peer, stage.Str(host)
			add(Record{Kind: KindEdgeHostFiltered, Event: id, Node: obj, Peer: peer, Detail: host})
		case 8:
			clause, pos := clauses[rng.Intn(len(clauses))], bdl.Pos{Line: 1 + rng.Intn(9), Col: rng.Intn(60)}
			d := note(KindEdgeWhereRejected)
			d.Event, d.Node, d.Peer, d.Clause, d.Begin, d.Finish = id, obj, peer, stage.Str(clause), int64(pos.Line), int64(pos.Col)
			add(Record{Kind: KindEdgeWhereRejected, Event: id, Node: obj, Peer: peer, Clause: clause, Pos: pos.String()})
		case 9:
			hop, limit := 4+rng.Intn(9), 3+rng.Intn(9)
			d := note(KindEdgeHopBudget)
			d.Event, d.Node, d.Peer, d.Hop, d.Card = id, obj, peer, int32(hop), int32(limit)
			add(Record{Kind: KindEdgeHopBudget, Event: id, Node: obj, Peer: peer, Hop: hop, Card: limit})
		case 10, 11:
			card, state, boost := 1+rng.Intn(40), rng.Intn(4)-1, rng.Intn(2)
			d := note(KindWindowEnqueued)
			d.Node, d.Begin, d.Finish, d.Card, d.State, d.Boost = obj, wb, wf, int32(card), int16(state), int8(boost)
			add(Record{Kind: KindWindowEnqueued, Node: obj, Begin: wb, Finish: wf, Card: card, State: state, Boost: boost})
		case 12:
			d := note(KindWindowEmpty)
			d.Node, d.Begin, d.Finish = obj, wb, wf
			add(Record{Kind: KindWindowEmpty, Node: obj, Begin: wb, Finish: wf})
		case 13:
			card := 9 + rng.Intn(90)
			d := note(KindWindowResplit)
			d.Node, d.Begin, d.Finish, d.Card = obj, wb, wf, int32(card)
			add(Record{Kind: KindWindowResplit, Node: obj, Begin: wb, Finish: wf, Card: card})
		case 14, 15:
			// A window query: the store's charges ride on its record as its
			// cost; with a memo bound the verdict lands mid-query, after
			// everything staged before it.
			began := int64(clk.Now().Sub(start))
			rows := rng.Intn(9)
			if hit := rng.Intn(2) == 0; rng.Intn(2) == 0 {
				flush()
				stage.Charge(0, 400*time.Millisecond)
				clk.Advance(400 * time.Millisecond)
				r.MemoVerdict(hit, "backward", obj, wb, wf, rows)
				kind := KindMemoMiss
				if hit {
					kind = KindMemoHit
				}
				add(Record{Kind: kind, Node: obj, Begin: wb, Finish: wf, Card: rows, Detail: "backward"})
			}
			d := stage.Queried(began, int64(clk.Now().Sub(start)))
			d.Node, d.Begin, d.Finish, d.Card = obj, wb, wf, int32(rows)
			add(Record{Kind: KindWindowQueried, Node: obj, Begin: wb, Finish: wf, Card: rows})
		case 16:
			d := note(KindWindowAbandoned)
			d.Node, d.Begin, d.Finish, d.Detail = obj, wb, wf, stage.Str("stopped by analyst")
			add(Record{Kind: KindWindowAbandoned, Node: obj, Begin: wb, Finish: wf, Detail: "stopped by analyst"})
		case 17:
			aside(r.Pause)
			add(Record{Kind: KindPause})
		case 18:
			aside(r.Resume)
			add(Record{Kind: KindResume})
		case 19:
			aside(func() { r.PlanUpdate("resume", "+where") })
			add(Record{Kind: KindPlanUpdate, Clause: "resume", Detail: "+where"})
		case 20:
			aside(func() { r.Finalize(3) })
			add(Record{Kind: KindFinalize, Card: 3})
		default:
			flush()
			if want.seq < 300 || rng.Intn(8) == 0 { // a reader costs a copy of the ring
				check(fmt.Sprintf("after %d records", want.seq))
			}
		}
	}
	stage.Add(KindRunEnd, int64(clk.Now().Sub(start))).Detail = stage.Str("completed") // for the watch and the spans: no record
	flush()
	check("at the end")
	for node := event.ObjID(0); node < 7; node++ {
		if got, want := r.Explain(node), explainFrom(want.records(), node); !reflect.DeepEqual(got, want) {
			t.Fatalf("Explain(%d) = %+v\nwant %+v", node, got, want)
		}
	}
}

// explainFrom is Explain as it was over a copy of the ring: every retained
// record rebuilt, then filtered by node.
func explainFrom(recs []Record, node event.ObjID) Explanation {
	ex := Explanation{Node: node}
	for _, rec := range recs {
		if rec.Node != node {
			continue
		}
		switch rec.Kind {
		case KindRunStart:
			ex.Included, ex.Start = true, true
			c := rec
			ex.Inclusion = &c
		case KindEdgeAdded:
			ex.Included = true
			if ex.Inclusion == nil {
				c := rec
				ex.Inclusion = &c
			}
		case KindEdgeDedup:
			// Neutral: the candidate was already an edge.
		case KindEdgeDropped, KindEdgeHostFiltered, KindEdgeWhereRejected, KindEdgeHopBudget:
			ex.Exclusions = append(ex.Exclusions, rec)
		case KindWindowEnqueued, KindWindowEmpty, KindWindowResplit, KindWindowQueried, KindWindowAbandoned:
			ex.Scheduling = append(ex.Scheduling, rec)
		}
	}
	return ex
}

// sameRecords compares record lists, stamps by instant.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.At.Equal(y.At) {
			return false
		}
		x.At, y.At = time.Time{}, time.Time{}
		if x != y {
			return false
		}
	}
	return true
}
