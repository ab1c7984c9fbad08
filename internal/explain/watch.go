package explain

import (
	"fmt"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/telemetry"
)

// EventKind classifies an Event. The String form is the trace-event name
// shown in Perfetto.
type EventKind uint8

const (
	// EvRun spans the whole analysis, run start to run end.
	EvRun EventKind = iota
	// EvEnqueue marks an execution window entering the priority queue.
	EvEnqueue
	// EvQuery spans one bounded window query, carrying retrieved rows and
	// the store-charged cost (rows examined, posting buckets walked).
	EvQuery
	// EvResplit marks a window split in half instead of being queried.
	EvResplit
	// EvUpdate marks a graph update batch (distinct clock instants only).
	EvUpdate
	// EvAbandon marks a window still queued when the run ended early.
	EvAbandon
	// EvPause spans an analyst pause, pause to resume (or run end).
	EvPause
	// EvPlan marks a mid-run BDL script swap.
	EvPlan
	// EvStall spans a watchdog violation: no update for longer than the
	// lane's stall limit. It carries the heaviest query of the gap.
	EvStall
)

var eventNames = [...]string{
	EvRun:     "run",
	EvEnqueue: "window.enqueue",
	EvQuery:   "window.query",
	EvResplit: "window.resplit",
	EvUpdate:  "graph.update",
	EvAbandon: "window.abandon",
	EvPause:   "session.pause",
	EvPlan:    "plan.update",
	EvStall:   "slo.stall",
}

// String returns the trace-event name for the kind.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Event is one entry of a run's timeline, as a Watch makes it of the records
// it folds. Field meaning varies by Kind: window kinds carry (Obj, Begin,
// Finish); Rows is retrieved rows for EvQuery, the cardinality estimate for
// EvEnqueue/EvResplit.
type Event struct {
	Kind      EventKind
	Start     time.Time
	Dur       time.Duration // zero for instants
	Obj       event.ObjID
	Begin     int64
	Finish    int64
	Rows      int
	Buckets   int64         // posting buckets walked (EvQuery/EvStall)
	Cost      time.Duration // store-charged query cost (EvQuery/EvStall)
	Alert     event.EventID // the run's alert event (EvRun)
	Detail    string
	HasWindow bool
}

// Stall is one watchdog violation. A log keeps every one of them, whatever
// its ring has dropped, so the SLO report is complete.
type Stall struct {
	Lane      int64         `json:"lane"`
	LaneName  string        `json:"lane_name"`
	At        time.Time     `json:"at"`  // the last update before the gap
	Gap       time.Duration `json:"gap"` // elapsed until the next update (or run end)
	Obj       event.ObjID   `json:"obj,omitempty"`
	Begin     int64         `json:"begin,omitempty"`
	Finish    int64         `json:"finish,omitempty"`
	Rows      int           `json:"rows,omitempty"`
	Cost      time.Duration `json:"cost,omitempty"`
	HasWindow bool          `json:"has_window"`    // an offending window query was identified ...
	Seq       uint64        `json:"seq,omitempty"` // ... and this is its window-queried record
}

// Progress is a log's running summary, under its lane's ID and name if it has
// one: complete for the whole run, whatever the ring has dropped. Dropped is
// how many records that is — decisions of every kind, not timeline events.
type Progress struct {
	ID       int64         `json:"id"`
	Name     string        `json:"name"`
	Events   int           `json:"events"`
	Dropped  int           `json:"dropped_records,omitempty"`
	Updates  int           `json:"updates"`
	Queries  int           `json:"queries"`
	WorstGap time.Duration `json:"worst_gap"`
	Stalls   []Stall       `json:"stalls,omitempty"`
}

// Watch is the one fold over a run's decisions: the window lifecycle, added
// edges, analyst pauses and the run's start and end go in (Step); out come
// the inter-update gaps — computed once, here, for the gap histogram, the
// worst-gap figure and the SLO watchdog alike — the running counts, the
// stalls, and the run's timeline Events. A log keeps one current as records
// arrive, so all of that is at hand whatever the ring has dropped, and replays
// another over the retained records when someone reads the events. The zero
// value only feeds Gaps: what an executor with telemetry but no log steps over
// its stage. Every instant is nanoseconds from the holder's base.
type Watch struct {
	// Gaps, if set, receives the gap between every two distinct update
	// instants in seconds: Table II's statistic as a live metric. Edges
	// landing at one instant (one retrieval's batch) are one update.
	Gaps *telemetry.Histogram

	log      *Recorder   // resolves instants, strings and the lane for emit and stalls
	emit     func(Event) // receives every event; nil when they are only counted
	limit    time.Duration
	stallCtr *telemetry.Counter

	runStart int64
	started  bool
	alert    event.EventID

	anchor   int64 // the instant the watchdog measures the gap from
	anchored bool
	last     int64 // the latest distinct update instant, which Gaps measures from
	updated  bool

	pauseStart int64
	paused     bool

	// The heaviest query since the last update: the stall offender.
	heavy                   Decision
	heavyBuckets, heavyCost int64
	heavySeq                uint64
	haveHeavy               bool

	events   int
	updates  int
	queries  int
	worstGap time.Duration
	stalls   []Stall
}

// Step folds the record d, number seq of its log, whose query cost — if it
// has one — is in nums.
func (w *Watch) Step(seq uint64, d *Decision, nums []int64) {
	switch d.Kind {
	case KindRunStart:
		// The watchdog anchor starts here, so a run that never updates still
		// stalls: time-to-first-update is part of the SLO.
		w.runStart, w.started, w.alert = d.At, true, d.Event
		w.anchor, w.anchored = d.At, true
		w.updated, w.haveHeavy = false, false
	case KindWindowEnqueued:
		w.mark(EvEnqueue, d.At, 0, d, nil)
	case KindWindowResplit:
		w.mark(EvResplit, d.At, 0, d, nil)
	case KindWindowQueried:
		w.queries++
		q := queryAt(nums, d)
		if !w.haveHeavy || q.Cost > w.heavyCost || (q.Cost == w.heavyCost && d.Card > w.heavy.Card) {
			w.heavy, w.heavySeq, w.haveHeavy = *d, seq, true
			w.heavyBuckets, w.heavyCost = q.Buckets, q.Cost
		}
		w.mark(EvQuery, q.Start, d.At-q.Start, d, nums)
	case KindEdgeAdded:
		if d.Event != w.alert { // the alert edge seeds the graph; it is no update
			w.update(d.At)
		}
	case KindWindowAbandoned:
		w.mark(EvAbandon, d.At, 0, d, nil)
	case KindPause:
		if !w.paused {
			w.pauseStart, w.paused = d.At, true
		}
	case KindResume:
		// Paused time is analyst-chosen, not an executor stall: the watchdog
		// restarts at the resume instant.
		if w.paused {
			w.mark(EvPause, w.pauseStart, d.At-w.pauseStart, nil, nil)
			w.paused = false
			if w.anchored {
				w.anchor = d.At
			}
		}
	case KindPlanUpdate:
		w.mark(EvPlan, d.At, 0, d, nil)
	case KindRunEnd:
		w.end(d.At, 0)
	}
}

// update folds one graph update landing at the instant at. Updates sharing
// one instant (edges of a single retrieval, on a clock only charges move) are
// one update; gaps are measured between distinct instants, and the watchdog
// fires a stall when one exceeds the limit.
func (w *Watch) update(at int64) {
	w.updates++
	if w.updated && at != w.last {
		w.Gaps.Observe(time.Duration(at - w.last).Seconds())
	}
	w.last, w.updated = at, true
	if w.anchored && at <= w.anchor {
		return
	}
	if w.anchored {
		w.checkGap(at)
	}
	w.anchor, w.anchored = at, true
	w.haveHeavy = false
	w.mark(EvUpdate, at, 0, nil, nil)
}

// checkGap runs the watchdog for the gap [w.anchor, at]: it tracks the worst
// gap and records a stall — an event covering the whole gap, a report entry
// naming the heaviest query inside it, and the aptrace_slo_stall_total
// counter — when the gap exceeds the limit.
func (w *Watch) checkGap(at int64) {
	gap := time.Duration(at - w.anchor)
	if gap > w.worstGap {
		w.worstGap = gap
	}
	if w.limit <= 0 || gap <= w.limit {
		return
	}
	st := Stall{Lane: w.log.lane, LaneName: w.log.name, At: w.log.base.Add(time.Duration(w.anchor)), Gap: gap}
	var heavy *Decision
	if w.haveHeavy {
		heavy = &w.heavy
		st.Obj, st.Begin, st.Finish = heavy.Node, heavy.Begin, heavy.Finish
		st.Rows, st.Cost, st.HasWindow, st.Seq = int(heavy.Card), time.Duration(w.heavyCost), true, w.heavySeq
	}
	w.stalls = append(w.stalls, st)
	w.mark(EvStall, w.anchor, int64(gap), heavy, nil)
	w.stallCtr.Inc()
}

// end closes the run at the instant at and returns the instant it began: any
// open pause is closed, the tail gap is checked (a run may stall by ending
// long after its last update), and the whole run becomes one span carrying
// the stop reason, a string of the log.
func (w *Watch) end(at int64, reason uint32) (start int64) {
	if w.paused {
		w.mark(EvPause, w.pauseStart, at-w.pauseStart, nil, nil)
		w.paused = false
	}
	if w.anchored && at > w.anchor {
		w.checkGap(at)
	}
	start = w.runStart
	if !w.started {
		start = at
	}
	w.mark(EvRun, start, at-start, &Decision{Event: w.alert, Detail: reason}, nil)
	w.anchored = false
	return start
}

// mark counts one event and, if anyone receives them, builds it: d is the
// record it stands for — the heaviest query for a stall, the alert and reason
// for a run — and nums holds d's query cost.
func (w *Watch) mark(kind EventKind, start, dur int64, d *Decision, nums []int64) {
	w.events++
	if w.emit == nil {
		return
	}
	ev := Event{Kind: kind, Start: w.log.base.Add(time.Duration(start)), Dur: time.Duration(dur)}
	if d != nil {
		ev.Detail = w.log.strs.Get(d.Detail)
		switch kind {
		case EvRun:
			ev.Alert = d.Event
		case EvPlan:
			ev.Detail = w.log.strs.Get(d.Clause) + ": " + ev.Detail
		default:
			ev.Obj, ev.Begin, ev.Finish, ev.Rows, ev.HasWindow = d.Node, d.Begin, d.Finish, int(d.Card), true
		}
		switch kind {
		case EvQuery:
			q := queryAt(nums, d)
			ev.Buckets, ev.Cost = q.Buckets, time.Duration(q.Cost)
		case EvStall:
			ev.Buckets, ev.Cost = w.heavyBuckets, time.Duration(w.heavyCost)
		}
	}
	w.emit(ev)
}

// Progress returns the log's running summary (zero on a nil log).
func (r *Recorder) Progress() Progress {
	if r == nil {
		return Progress{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Progress{
		ID: r.lane, Name: r.name,
		Events: r.live.events, Dropped: int(r.oldest()),
		Updates: r.live.updates, Queries: r.live.queries,
		WorstGap: r.live.worstGap,
		Stalls:   append([]Stall(nil), r.live.stalls...),
	}
}

// Events replays the fold over the retained records and returns the timeline
// events it makes of them, in the order it made them, with the number of
// records the ring has dropped before them. Once it has dropped any, the
// replay makes only the events a retained record is enough for — windows
// enqueued, queried, re-split and abandoned, updates, plan swaps, pauses from
// a retained start — and the stalls and run spans are the live watch's, which
// saw every record. Nil-safe.
func (r *Recorder) Events() (events []Event, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ends := Watch{log: r, limit: r.live.limit}, r.ends
	events = make([]Event, 0, min(r.live.events, r.capacity))
	w.emit = func(ev Event) { events = append(events, ev) }
	if dropped = r.oldest(); dropped > 0 {
		for _, st := range r.live.stalls {
			events = append(events, Event{Kind: EvStall, Start: st.At, Dur: st.Gap, Obj: st.Obj,
				Begin: st.Begin, Finish: st.Finish, Rows: st.Rows, Cost: st.Cost, HasWindow: st.HasWindow})
		}
		for _, e := range ends {
			events = append(events, Event{Kind: EvRun, Start: r.base.Add(time.Duration(e.start)),
				Dur: time.Duration(e.at - e.start), Alert: e.alert, Detail: r.strs.Get(e.reason)})
		}
		w.limit, w.alert, ends = 0, r.live.alert, nil
	}
	for seq := dropped; seq < r.seq; seq++ {
		for ; len(ends) > 0 && ends[0].seq <= seq; ends = ends[1:] {
			w.end(ends[0].at, ends[0].reason)
		}
		w.Step(seq, r.ring.Get(int(seq%uint64(r.capacity))), r.nums[(seq/uint64(r.capacity))&1])
	}
	for _, e := range ends {
		w.end(e.at, e.reason)
	}
	return events, dropped
}
