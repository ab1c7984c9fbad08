package timeline

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
)

// oracleLane is the lane as it was before the executor staged its records:
// one call and one lock per step, Events kept by value in a plain slice. It
// is the reference TestStagedLaneMatchesOracle drives the staged lane
// against.
type oracleLane struct {
	id    int64
	name  string
	limit time.Duration
	max   int

	events  []Event
	dropped int

	runStart time.Time
	started  bool
	alert    event.EventID

	anchor   time.Time
	anchored bool

	pauseStart time.Time
	pausedOpen bool

	pendingBuckets   int64
	pendingCost      time.Duration
	pendingFanout    int
	pendingShardRows []int64

	heavy     Event
	haveHeavy bool

	updates  int
	queries  int
	worstGap time.Duration
	stalls   []Stall
}

func (r *oracleLane) append(ev Event) {
	if len(r.events) >= r.max {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

func (r *oracleLane) RunStart(at time.Time, alert event.EventID) {
	r.runStart, r.started = at, true
	r.alert = alert
	r.anchor, r.anchored = at, true
	r.haveHeavy = false
}

func (r *oracleLane) RunEnd(at time.Time, reason string) {
	if r.pausedOpen {
		r.append(Event{Kind: KindPause, Start: r.pauseStart, Dur: at.Sub(r.pauseStart)})
		r.pausedOpen = false
	}
	if r.anchored && at.After(r.anchor) {
		r.checkGap(at)
	}
	start := r.runStart
	if !r.started {
		start = at
	}
	r.append(Event{Kind: KindRun, Start: start, Dur: at.Sub(start), Alert: r.alert, Detail: reason})
	r.anchored = false
}

func (r *oracleLane) Update(at time.Time) {
	r.updates++
	if r.anchored && !at.After(r.anchor) {
		return
	}
	if r.anchored {
		r.checkGap(at)
	}
	r.anchor, r.anchored = at, true
	r.haveHeavy = false
	r.append(Event{Kind: KindUpdate, Start: at})
}

func (r *oracleLane) checkGap(at time.Time) {
	gap := at.Sub(r.anchor)
	if gap > r.worstGap {
		r.worstGap = gap
	}
	if r.limit <= 0 || gap <= r.limit {
		return
	}
	st := Stall{Lane: r.id, LaneName: r.name, At: r.anchor, Gap: gap}
	ev := Event{Kind: KindStall, Start: r.anchor, Dur: gap}
	if r.haveHeavy {
		st.Obj, st.Begin, st.Finish = r.heavy.Obj, r.heavy.Begin, r.heavy.Finish
		st.Rows, st.Cost, st.HasWindow = r.heavy.Rows, r.heavy.Cost, true
		ev.Obj, ev.Begin, ev.Finish = st.Obj, st.Begin, st.Finish
		ev.Rows, ev.Buckets, ev.Cost = st.Rows, r.heavy.Buckets, st.Cost
		ev.HasWindow = true
	}
	r.stalls = append(r.stalls, st)
	r.append(ev)
}

func (r *oracleLane) Enqueued(at time.Time, obj event.ObjID, begin, finish int64, card int) {
	r.append(Event{Kind: KindEnqueue, Start: at, Obj: obj, Begin: begin, Finish: finish, Rows: card, HasWindow: true})
}

func (r *oracleLane) Resplit(at time.Time, obj event.ObjID, begin, finish int64, card int) {
	r.append(Event{Kind: KindResplit, Start: at, Obj: obj, Begin: begin, Finish: finish, Rows: card, HasWindow: true})
}

func (r *oracleLane) Query(start, end time.Time, obj event.ObjID, begin, finish int64, rows int) {
	r.queries++
	ev := Event{
		Kind: KindQuery, Start: start, Dur: end.Sub(start),
		Obj: obj, Begin: begin, Finish: finish, Rows: rows,
		Buckets: r.pendingBuckets, Cost: r.pendingCost,
		Fanout: r.pendingFanout, ShardRows: r.pendingShardRows, HasWindow: true,
	}
	r.pendingBuckets, r.pendingCost = 0, 0
	r.pendingFanout, r.pendingShardRows = 0, nil
	if !r.haveHeavy || ev.Cost > r.heavy.Cost ||
		(ev.Cost == r.heavy.Cost && ev.Rows > r.heavy.Rows) {
		r.heavy, r.haveHeavy = ev, true
	}
	r.append(ev)
}

func (r *oracleLane) ObserveQueryCost(buckets int64, cost time.Duration) {
	r.pendingBuckets += buckets
	r.pendingCost += cost
}

func (r *oracleLane) ObserveScatter(fanout int, shardRows []int64) {
	if fanout > r.pendingFanout {
		r.pendingFanout = fanout
	}
	if len(shardRows) > len(r.pendingShardRows) {
		grown := make([]int64, len(shardRows))
		copy(grown, r.pendingShardRows)
		r.pendingShardRows = grown
	}
	for i, n := range shardRows {
		r.pendingShardRows[i] += n
	}
}

func (r *oracleLane) Abandoned(at time.Time, obj event.ObjID, begin, finish int64, reason string) {
	r.append(Event{Kind: KindAbandon, Start: at, Obj: obj, Begin: begin, Finish: finish, Detail: reason, HasWindow: true})
}

func (r *oracleLane) Pause(at time.Time) {
	if !r.pausedOpen {
		r.pauseStart, r.pausedOpen = at, true
	}
}

func (r *oracleLane) Resume(at time.Time) {
	if r.pausedOpen {
		r.append(Event{Kind: KindPause, Start: r.pauseStart, Dur: at.Sub(r.pauseStart)})
		r.pausedOpen = false
		if r.anchored {
			r.anchor = at
		}
	}
}

func (r *oracleLane) PlanUpdate(at time.Time, detail string) {
	r.append(Event{Kind: KindPlan, Start: at, Detail: detail})
}

// TestStagedLaneMatchesOracle drives random runs — enqueues, re-splits,
// queries with staged cost and shard splits, added edges at moving and
// standing instants, abandoned windows, and pauses, resumes and plan updates
// made from another goroutine while the run loop is parked — through the
// staged lane (one Consume per flush, flushes at random points) and through
// the per-call lane it replaced, with the event cap below, at and above what
// the run emits: kept events, drops, updates, queries, stalls, worst gap and
// the Chrome trace must be identical.
func TestStagedLaneMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		var total int
		for _, limit := range []int{1 << 20, 0, -1, 7} { // uncapped first: it measures the run
			max := limit
			switch limit {
			case 0:
				max = total
			case -1:
				max = total - 1
			}
			total = driveLane(t, seed, max)
		}
	}
}

// driveLane runs one random script through both lanes with the given event
// cap and returns how many events the script emitted.
func driveLane(t *testing.T, seed int64, max int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := New(Options{GapTarget: time.Second, MaxLaneEvents: max})
	lane := p.Lane("run")
	want := &oracleLane{id: lane.id, name: lane.name, limit: p.limit, max: lane.max}

	var (
		now   = t0
		stage = explain.Stage{Base: t0}
		tick  = func() {
			if rng.Intn(3) > 0 {
				now = now.Add(time.Duration(rng.Intn(2500)) * time.Millisecond)
			}
		}
		flush = func() {
			lane.Consume(&stage)
			stage.Reset()
		}
		note = func(kind explain.Kind) *explain.Decision {
			return stage.Add(kind, int64(now.Sub(t0)))
		}
		window = func(kind explain.Kind) (*explain.Decision, event.ObjID, int64, int64) {
			obj, begin := event.ObjID(rng.Intn(9)), int64(rng.Intn(1000))
			finish := begin + 1 + int64(rng.Intn(500))
			d := note(kind)
			d.Node, d.Begin, d.Finish = obj, begin, finish
			return d, obj, begin, finish
		}
		// aside runs f on another goroutine while this one — the run loop —
		// waits with an empty stage, as it does parked or inside OnUpdate.
		aside = func(f func()) {
			flush()
			done := make(chan struct{})
			go func() { defer close(done); f() }()
			<-done
		}
	)
	alert := event.EventID(40 + seed)
	d := note(explain.KindRunStart)
	d.Event = alert
	want.RunStart(now, alert)
	note(explain.KindEdgeAdded).Event = alert // the alert edge: recorded, never an update

	reason := []string{"completed", "time budget exceeded", "stopped by analyst"}[rng.Intn(3)]
	for step, steps := 0, 40+rng.Intn(200); step < steps; step++ {
		tick()
		switch k := rng.Intn(20); {
		case k < 6:
			d, obj, b, f := window(explain.KindWindowEnqueued)
			d.Card = int32(rng.Intn(50))
			want.Enqueued(now, obj, b, f, int(d.Card))
		case k < 8:
			d, obj, b, f := window(explain.KindWindowResplit)
			d.Card = int32(9 + rng.Intn(50))
			want.Resplit(now, obj, b, f, int(d.Card))
		case k < 13:
			d, obj, b, f := window(explain.KindQueryStart)
			d.Card = int32(rng.Intn(9))
			start := now
			for n := rng.Intn(4); n > 0; n-- { // the store's observers, inside the fetch
				if rng.Intn(3) == 0 {
					flush() // the memo view's verdict sits here
				}
				buckets, cost := int64(rng.Intn(6)), time.Duration(rng.Intn(900))*time.Millisecond
				c := stage.Add(explain.KindCharge, 0)
				c.Begin, c.Finish = buckets, int64(cost)
				want.ObserveQueryCost(buckets, cost)
				now = now.Add(cost)
				if rng.Intn(2) == 0 {
					split := make([]int64, 1+rng.Intn(4))
					for i := range split {
						split[i] = int64(rng.Intn(5))
					}
					s := stage.Add(explain.KindScatter, 0)
					s.Card, s.Begin, s.Finish = int32(len(split)), int64(len(stage.Rows)), int64(len(split))
					stage.Rows = append(stage.Rows, split...)
					want.ObserveScatter(len(split), split)
				}
			}
			q := note(explain.KindWindowQueried)
			q.Node, q.Begin, q.Finish, q.Card = obj, b, f, int32(rng.Intn(9))
			want.Query(start, now, obj, b, f, int(q.Card))
			for n := rng.Intn(4); n > 0; n-- { // edges of the retrieval
				if rng.Intn(2) == 0 {
					note(explain.KindEdgeDedup)
					continue
				}
				note(explain.KindEdgeAdded).Event = event.EventID(1000 + step*8 + n)
				want.Update(now)
				if rng.Intn(2) == 0 {
					flush() // an OnUpdate hook runs here
					tick()
				}
			}
		case k < 15:
			flush()
		case k < 17:
			aside(func() { lane.Pause(now) })
			want.Pause(now)
		case k < 19:
			aside(func() { lane.Resume(now) })
			want.Resume(now)
		default:
			aside(func() { lane.PlanUpdate(now, "resume: +where") })
			want.PlanUpdate(now, "resume: +where")
		}
	}
	tick()
	why := stage.Str(reason)
	for n := rng.Intn(4); n > 0 && reason != "completed"; n-- {
		d, obj, b, f := window(explain.KindWindowAbandoned)
		d.Detail = why
		want.Abandoned(now, obj, b, f, reason)
	}
	note(explain.KindRunEnd).Detail = why
	want.RunEnd(now, reason)
	flush()

	got := lane.Stats()
	wantStats := LaneReport{
		ID: want.id, Name: want.name, Events: len(want.events), Dropped: want.dropped,
		Updates: want.updates, Queries: want.queries, WorstGap: want.worstGap, Stalls: want.stalls,
	}
	if !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("seed %d, cap %d: Stats() = %+v\nwant %+v", seed, max, got, wantStats)
	}
	if events := snapshotEvents(lane); !sameEvents(events, want.events) {
		t.Fatalf("seed %d, cap %d: events = %+v\nwant %+v", seed, max, events, want.events)
	}
	var gotTrace, wantTrace bytes.Buffer
	if err := p.WriteTrace(&gotTrace); err != nil {
		t.Fatal(err)
	}
	if err := writeDumps(&wantTrace, []laneDump{{id: want.id, name: want.name, dropped: want.dropped, events: want.events}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
		t.Fatalf("seed %d, cap %d: Chrome trace differs\n got %s\nwant %s", seed, max, gotTrace.Bytes(), wantTrace.Bytes())
	}
	if err := Validate(gotTrace.Bytes()); err != nil {
		t.Fatalf("seed %d, cap %d: %v", seed, max, err)
	}
	return len(want.events) + want.dropped
}

// sameEvents compares event lists, an empty shard split equal to none.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.ShardRows) == 0 && len(y.ShardRows) == 0 {
			x.ShardRows, y.ShardRows = nil, nil
		}
		if !x.Start.Equal(y.Start) {
			return false
		}
		x.Start, y.Start = time.Time{}, time.Time{}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}
