package explain

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"aptrace/internal/event"
)

// oracleLane is the lane as it was before the executor staged its records
// and before a lane was a view of the run's log: one call per step, Events
// kept by value in a plain slice. It is the reference
// TestStagedLaneMatchesOracle drives the log's fold against.
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

	pendingBuckets int64
	pendingCost    time.Duration

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
		r.append(Event{Kind: EvPause, Start: r.pauseStart, Dur: at.Sub(r.pauseStart)})
		r.pausedOpen = false
	}
	if r.anchored && at.After(r.anchor) {
		r.checkGap(at)
	}
	start := r.runStart
	if !r.started {
		start = at
	}
	r.append(Event{Kind: EvRun, Start: start, Dur: at.Sub(start), Alert: r.alert, Detail: reason})
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
	r.append(Event{Kind: EvUpdate, Start: at})
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
	ev := Event{Kind: EvStall, Start: r.anchor, Dur: gap}
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
	r.append(Event{Kind: EvEnqueue, Start: at, Obj: obj, Begin: begin, Finish: finish, Rows: card, HasWindow: true})
}

func (r *oracleLane) Resplit(at time.Time, obj event.ObjID, begin, finish int64, card int) {
	r.append(Event{Kind: EvResplit, Start: at, Obj: obj, Begin: begin, Finish: finish, Rows: card, HasWindow: true})
}

func (r *oracleLane) Query(start, end time.Time, obj event.ObjID, begin, finish int64, rows int) {
	r.queries++
	ev := Event{
		Kind: EvQuery, Start: start, Dur: end.Sub(start),
		Obj: obj, Begin: begin, Finish: finish, Rows: rows,
		Buckets: r.pendingBuckets, Cost: r.pendingCost, HasWindow: true,
	}
	r.pendingBuckets, r.pendingCost = 0, 0
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

func (r *oracleLane) Abandoned(at time.Time, obj event.ObjID, begin, finish int64, reason string) {
	r.append(Event{Kind: EvAbandon, Start: at, Obj: obj, Begin: begin, Finish: finish, Detail: reason, HasWindow: true})
}

func (r *oracleLane) Pause(at time.Time) {
	if !r.pausedOpen {
		r.pauseStart, r.pausedOpen = at, true
	}
}

func (r *oracleLane) Resume(at time.Time) {
	if r.pausedOpen {
		r.append(Event{Kind: EvPause, Start: r.pauseStart, Dur: at.Sub(r.pauseStart)})
		r.pausedOpen = false
		if r.anchored {
			r.anchor = at
		}
	}
}

func (r *oracleLane) PlanUpdate(at time.Time, detail string) {
	r.append(Event{Kind: EvPlan, Start: at, Detail: detail})
}

// TestStagedLaneMatchesOracle drives random runs — enqueues, re-splits,
// queries with staged cost, added edges at moving and standing instants,
// abandoned windows, and pauses, resumes and plan updates made from another
// goroutine while the run loop is parked — through a lane's
// log (one Consume per flush, flushes at random points) and through the
// per-call lane it replaced. With the log's ring as large as the run, events,
// updates, queries, stalls, worst gap and the Chrome trace must be identical;
// with it one record short, and far short, the run's progress (updates,
// queries, stalls, worst gap) must still be, the drops must be counted, and
// the events read back must be the tail of the oracle's.
func TestStagedLaneMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		var total int
		for _, limit := range []int{1 << 20, 0, -1, 7} { // uncapped first: it measures the run
			capacity := limit
			switch limit {
			case 0:
				capacity = total
			case -1:
				capacity = total - 1
			}
			total = driveLane(t, seed, capacity)
		}
	}
}

// driveLane runs one random script through the oracle and through a lane
// whose log retains capacity records, and returns how many records the
// script emitted.
func driveLane(t *testing.T, seed int64, capacity int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := &session{}
	lane := p.newLane("run", capacity)
	want := &oracleLane{id: lane.LaneID(), name: "run", limit: DefaultStallFactor * testTarget, max: 1 << 20}

	var (
		now   = t0
		stage = &lane.stage
		tick  = func() {
			if rng.Intn(3) > 0 {
				now = now.Add(time.Duration(rng.Intn(2500)) * time.Millisecond)
			}
		}
		flush = lane.flush
		note  = func(kind Kind) *Decision {
			return stage.Add(kind, int64(now.Sub(t0)))
		}
		window = func() (event.ObjID, int64, int64) {
			obj, begin := event.ObjID(rng.Intn(9)), int64(rng.Intn(1000))
			return obj, begin, begin + 1 + int64(rng.Intn(500))
		}
		noteWindow = func(kind Kind) (*Decision, event.ObjID, int64, int64) {
			obj, begin, finish := window()
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
	stage.Base = t0
	alert := event.EventID(40 + seed)
	d := note(KindRunStart)
	d.Event = alert
	want.RunStart(now, alert)
	note(KindEdgeAdded).Event = alert // the alert edge: recorded, never an update

	reason := []string{"completed", "time budget exceeded", "stopped by analyst"}[rng.Intn(3)]
	for step, steps := 0, 40+rng.Intn(200); step < steps; step++ {
		tick()
		switch k := rng.Intn(20); {
		case k < 6:
			d, obj, b, f := noteWindow(KindWindowEnqueued)
			d.Card = int32(rng.Intn(50))
			want.Enqueued(now, obj, b, f, int(d.Card))
		case k < 8:
			d, obj, b, f := noteWindow(KindWindowResplit)
			d.Card = int32(9 + rng.Intn(50))
			want.Resplit(now, obj, b, f, int(d.Card))
		case k < 13:
			obj, b, f := window()
			start := now
			for n := rng.Intn(4); n > 0; n-- { // the store's observers, inside the fetch
				if rng.Intn(3) == 0 {
					flush() // the memo view's verdict sits here
				}
				buckets, cost := int64(rng.Intn(6)), time.Duration(rng.Intn(900))*time.Millisecond
				stage.Charge(buckets, cost)
				want.ObserveQueryCost(buckets, cost)
				now = now.Add(cost)
			}
			q := stage.Queried(int64(start.Sub(t0)), int64(now.Sub(t0)))
			q.Node, q.Begin, q.Finish, q.Card = obj, b, f, int32(rng.Intn(9))
			want.Query(start, now, obj, b, f, int(q.Card))
			for n := rng.Intn(4); n > 0; n-- { // edges of the retrieval
				if rng.Intn(2) == 0 {
					note(KindEdgeDedup)
					continue
				}
				note(KindEdgeAdded).Event = event.EventID(1000 + step*8 + n)
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
		d, obj, b, f := noteWindow(KindWindowAbandoned)
		d.Detail = why
		want.Abandoned(now, obj, b, f, reason)
	}
	note(KindRunEnd).Detail = why
	want.RunEnd(now, reason)
	flush()

	emitted, _ := lane.Recorder.Stats()
	dropped := max(0, int(emitted)-capacity)
	events, _ := lane.Events()
	got := lane.Stats()
	wantStats := Progress{
		ID: want.id, Name: want.name, Events: len(want.events), Dropped: dropped,
		Updates: want.updates, Queries: want.queries, WorstGap: want.worstGap, Stalls: want.stalls,
	}
	for i := range min(len(got.Stalls), len(wantStats.Stalls)) { // the oracle never knew which record a stall's query was
		wantStats.Stalls[i].Seq = got.Stalls[i].Seq
	}
	if !reflect.DeepEqual(got, wantStats) {
		t.Fatalf("seed %d, capacity %d: Stats() = %+v\nwant %+v", seed, capacity, got, wantStats)
	}
	var gotTrace bytes.Buffer
	if err := WriteTrace(&gotTrace, p.lanes); err != nil {
		t.Fatal(err)
	}
	if err := Validate(gotTrace.Bytes()); err != nil {
		t.Fatalf("seed %d, capacity %d: %v", seed, capacity, err)
	}
	if dropped > 0 {
		if note := fmt.Sprintf(`"dropped_records":%d`, dropped); !bytes.Contains(gotTrace.Bytes(), []byte(note)) {
			t.Fatalf("seed %d, capacity %d: trace does not say %s", seed, capacity, note)
		}
		checkTail(t, fmt.Sprintf("seed %d, capacity %d", seed, capacity), events, want.events, lane.Records()[0].At)
		return int(emitted)
	}
	if !sameEvents(events, want.events) {
		t.Fatalf("seed %d, capacity %d: events = %+v\nwant %+v", seed, capacity, events, want.events)
	}
	var wantTrace bytes.Buffer
	if err := writeDumps(&wantTrace, []laneDump{{id: want.id, name: want.name, events: want.events}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
		t.Fatalf("seed %d, capacity %d: Chrome trace differs\n got %s\nwant %s", seed, capacity, gotTrace.Bytes(), wantTrace.Bytes())
	}
	return int(emitted)
}

// checkTail holds the events read from a log whose ring has wrapped to the
// policy: every stall and run span of the whole run (the live watch's), the
// run's last window and plan events exactly — as many as the retained records
// make — no pause but the tail of one of the run's, and every update after oldest, the
// instant of the oldest retained record, with none before it.
func checkTail(t *testing.T, name string, got, all []Event, oldest time.Time) {
	t.Helper()
	pick := func(evs []Event, keep func(Event) bool) (out []Event) {
		for _, ev := range evs {
			if keep(ev) {
				if ev.Kind == EvStall {
					ev.Buckets = 0 // a Stall keeps no bucket count
				}
				out = append(out, ev)
			}
		}
		return out
	}
	of := func(kinds ...EventKind) func(Event) bool {
		return func(ev Event) bool { return slices.Contains(kinds, ev.Kind) }
	}
	whole := of(EvStall, EvRun)
	if g, w := pick(got, whole), pick(all, whole); !sameEvents(g, w) {
		t.Fatalf("%s: stalls and run spans = %+v\nwant %+v", name, g, w)
	}
	own := of(EvEnqueue, EvResplit, EvQuery, EvAbandon, EvPlan)
	g, w := pick(got, own), pick(all, own)
	if len(g) > len(w) || !sameEvents(g, w[len(w)-len(g):]) {
		t.Fatalf("%s: window and plan events = %+v\nwant the tail of %+v", name, g, w)
	}
	for _, ev := range pick(got, of(EvPause)) {
		// It may have begun in a dropped record; it ends where the run's did.
		if !slices.ContainsFunc(all, func(o Event) bool {
			return o.Kind == ev.Kind && !o.Start.After(ev.Start) && o.Start.Add(o.Dur).Equal(ev.Start.Add(ev.Dur))
		}) {
			t.Fatalf("%s: pause %+v is none of the run's", name, ev)
		}
	}
	updates := pick(got, of(EvUpdate))
	for _, ev := range updates {
		if ev.Start.Before(oldest) {
			t.Fatalf("%s: update at %v precedes the oldest retained record (%v)", name, ev.Start, oldest)
		}
	}
	for _, ev := range pick(all, func(ev Event) bool { return ev.Kind == EvUpdate && ev.Start.After(oldest) }) {
		if !slices.ContainsFunc(updates, func(g Event) bool { return g.Start.Equal(ev.Start) }) {
			t.Fatalf("%s: update at %v is lost", name, ev.Start)
		}
	}
}

// sameEvents compares event lists, their instants by Equal.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
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
