// Package timeline is the per-run profiler: it correlates the executor's
// window lifecycle (enqueue → query → update → re-split/abandon), the
// store's charged query costs, and session pause/resume into one
// lane-per-run trace, exportable as Chrome trace-event JSON (trace.go) and
// summarized by an inter-update-gap SLO watchdog.
//
// A Profiler owns the lanes; each analysis run records into its own
// *Recorder (one lane), so fleet workers never contend and the exported
// trace is deterministic regardless of scheduling: lanes are allocated by
// sample index before dispatch, and every timestamp is an explicit instant
// read from the run's (simulated) clock — never wall time.
//
// Like the explain recorder, a nil *Recorder is a no-op costing one pointer
// test per emission site (see BenchmarkNilRecorder), and recording must not
// change any analysis output: the recorder never advances a clock and never
// touches the graph.
package timeline

import (
	"fmt"
	"sync"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/pages"
	"aptrace/internal/telemetry"
)

// DefaultGapTarget is the inter-update-gap SLO target. Table II reports
// APTrace's inter-update waiting time at avg 2 s, p90 4 s, p95 9 s; the
// default target is the p95 — an update cadence the paper's own system
// sustains on enterprise workloads.
const DefaultGapTarget = 9 * time.Second

// DefaultStallFactor is the watchdog multiplier: a stall fires when no
// graph update lands within StallFactor × GapTarget.
const DefaultStallFactor = 3

// DefaultMaxLaneEvents bounds one lane's trace buffer. Overflow is counted
// (never silent) and reported per lane; stall records are always kept.
const DefaultMaxLaneEvents = 1 << 16

// Kind classifies a timeline event. The String form is the trace-event
// name shown in Perfetto.
type Kind uint8

const (
	// KindRun spans the whole analysis, RunStart to RunEnd.
	KindRun Kind = iota
	// KindEnqueue marks an execution window entering the priority queue.
	KindEnqueue
	// KindQuery spans one bounded window query, carrying retrieved rows
	// and the store-charged cost (rows examined, posting buckets walked).
	KindQuery
	// KindResplit marks a window split in half instead of being queried.
	KindResplit
	// KindUpdate marks a graph update batch (distinct clock instants only).
	KindUpdate
	// KindAbandon marks a window still queued when the run ended early.
	KindAbandon
	// KindPause spans an analyst pause, Pause to Resume (or run end).
	KindPause
	// KindPlan marks a mid-run BDL script swap.
	KindPlan
	// KindStall spans a watchdog violation: no update for longer than
	// StallFactor × GapTarget. It carries the heaviest query of the gap.
	KindStall
)

var kindNames = [...]string{
	KindRun:     "run",
	KindEnqueue: "window.enqueue",
	KindQuery:   "window.query",
	KindResplit: "window.resplit",
	KindUpdate:  "graph.update",
	KindAbandon: "window.abandon",
	KindPause:   "session.pause",
	KindPlan:    "plan.update",
	KindStall:   "slo.stall",
}

// String returns the trace-event name for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// ph maps the kind to its Chrome trace-event phase: "X" (complete, with a
// duration) or "i" (instant).
func (k Kind) ph() string {
	switch k {
	case KindRun, KindQuery, KindPause, KindStall:
		return "X"
	}
	return "i"
}

// Event is one recorded timeline entry. Field meaning varies by Kind:
// window kinds carry (Obj, Begin, Finish); Rows is retrieved rows for
// KindQuery, the cardinality estimate for KindEnqueue/KindResplit.
type Event struct {
	Kind      Kind
	Start     time.Time
	Dur       time.Duration // zero for instants
	Obj       event.ObjID
	Begin     int64
	Finish    int64
	Rows      int
	Buckets   int64         // posting buckets walked (KindQuery/KindStall)
	Cost      time.Duration // store-charged query cost (KindQuery/KindStall)
	Fanout    int           // max shard fan-out of the claimed store queries (KindQuery; 0 = flat)
	ShardRows []int64       // per-shard row split of the claimed queries (KindQuery, sharded store only)
	Alert     event.EventID // the run's alert event (KindRun)
	Detail    string
	HasWindow bool
}

// Stall is one watchdog violation, kept separately from the (bounded)
// event buffer so the SLO report is complete even on truncated lanes.
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
	HasWindow bool          `json:"has_window"` // an offending window query was identified
}

// Options configure a Profiler. The zero value is usable: Table II target,
// factor 3, bounded lanes, no telemetry.
type Options struct {
	// GapTarget is the inter-update-gap SLO target (DefaultGapTarget if
	// zero or negative).
	GapTarget time.Duration
	// StallFactor is the watchdog multiplier (DefaultStallFactor if < 1):
	// a stall fires when a gap exceeds StallFactor × GapTarget.
	StallFactor int
	// MaxLaneEvents bounds each lane's event buffer
	// (DefaultMaxLaneEvents if zero or negative).
	MaxLaneEvents int
	// Telemetry, if set, receives the aptrace_slo_stall_total counter.
	Telemetry *telemetry.Registry
}

// Profiler owns the run lanes of one profiling session. Lanes are
// allocated deterministically (sequential IDs from 1) so the exported
// trace does not depend on goroutine scheduling. A nil Profiler hands out
// nil lanes, so callers need no enabled check.
type Profiler struct {
	target    time.Duration
	factor    int
	limit     time.Duration // target × factor; the stall threshold
	maxEvents int
	stallCtr  *telemetry.Counter

	mu    sync.Mutex
	lanes []*Recorder
}

// New returns a profiler with the given options (zero fields defaulted).
func New(opts Options) *Profiler {
	if opts.GapTarget <= 0 {
		opts.GapTarget = DefaultGapTarget
	}
	if opts.StallFactor < 1 {
		opts.StallFactor = DefaultStallFactor
	}
	if opts.MaxLaneEvents <= 0 {
		opts.MaxLaneEvents = DefaultMaxLaneEvents
	}
	return &Profiler{
		target:    opts.GapTarget,
		factor:    opts.StallFactor,
		limit:     opts.GapTarget * time.Duration(opts.StallFactor),
		maxEvents: opts.MaxLaneEvents,
		stallCtr:  opts.Telemetry.Counter(telemetry.MetricSLOStalls),
	}
}

// GapTarget returns the SLO target in effect (0 on a nil profiler).
func (p *Profiler) GapTarget() time.Duration {
	if p == nil {
		return 0
	}
	return p.target
}

// StallLimit returns the watchdog threshold, GapTarget × StallFactor.
func (p *Profiler) StallLimit() time.Duration {
	if p == nil {
		return 0
	}
	return p.limit
}

// Lane allocates one new lane. Nil profiler returns a nil (no-op) lane.
func (p *Profiler) Lane(name string) *Recorder {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.newLaneLocked(name)
}

// Lanes allocates a contiguous block of n lanes named "prefix i". Blocks
// are handed out in call order, so allocating all lanes before dispatching
// work (fleet.MapTimeline does) pins lane IDs to sample indexes and keeps
// the trace byte-identical between serial and parallel runs. A nil
// profiler returns nil.
func (p *Profiler) Lanes(prefix string, n int) []*Recorder {
	if p == nil || n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Recorder, n)
	for i := range out {
		out[i] = p.newLaneLocked(fmt.Sprintf("%s %d", prefix, i))
	}
	return out
}

func (p *Profiler) newLaneLocked(name string) *Recorder {
	r := &Recorder{
		id:       int64(len(p.lanes)) + 1,
		name:     name,
		limit:    p.limit,
		max:      p.maxEvents,
		stallCtr: p.stallCtr,
	}
	p.lanes = append(p.lanes, r)
	return r
}

// snapshot returns the lane list (IDs are stable; lane contents are read
// under each lane's own lock by the caller).
func (p *Profiler) snapshot() []*Recorder {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Recorder(nil), p.lanes...)
}

// laneEvent is an Event as the lane keeps it: fixed size, no pointers. Times
// count nanoseconds from the lane's base instant, detail indexes the lane's
// string table, shards/nshards locate the per-shard rows in Recorder.rows,
// and KindRun keeps its alert event in begin.
type laneEvent struct {
	start, dur    int64
	begin, finish int64
	buckets, cost int64
	obj           event.ObjID
	rows          int32
	shards        uint32
	detail        uint32
	nshards       uint8
	fanout        uint8
	kind          Kind
	window        bool
}

// Recorder records one lane — one analysis run (or one analyst session).
// The executor hands it its stage once per flush (Consume) and the lane
// derives the window lifecycle, the graph updates and the watchdog's verdicts
// from the decisions in it; harnesses and the session bracket and annotate a
// run through the direct methods. Every instant comes from the run's own
// clock; the recorder never reads wall time. Events are kept as pointer-free
// records in pages allocated on demand. All methods are safe on a nil
// receiver (single pointer test) and safe for concurrent use.
type Recorder struct {
	id       int64
	name     string
	limit    time.Duration
	max      int
	stallCtr *telemetry.Counter
	observer func(Event)

	mu      sync.Mutex
	base    time.Time // laneEvent times count from here; the first instant seen
	based   bool
	events  pages.Pages[laneEvent]
	n       int // events kept
	dropped int
	strs    explain.Strings
	rows    []int64 // per-shard row splits of the kept query events

	runStart int64
	started  bool
	alert    event.EventID

	anchor   int64 // the instant the watchdog measures the gap from
	anchored bool

	pauseStart int64
	pausedOpen bool

	// queryStart and pending* accumulate what the stage says about a window
	// query before the KindWindowQueried that claims it: the instant it
	// began, the store-charged cost (KindCharge), and on a sharded store the
	// widest fan-out and the element-wise per-shard row sum (KindScatter).
	queryStart       int64
	pendingBuckets   int64
	pendingCost      int64
	pendingFanout    int
	pendingShardRows []int64

	heavy     laneEvent // heaviest query since the last update (stall offender)
	haveHeavy bool

	updates  int
	queries  int
	worstGap time.Duration
	stalls   []Stall
}

// LaneID returns the lane's trace tid (0 on a nil recorder).
func (r *Recorder) LaneID() int64 {
	if r == nil {
		return 0
	}
	return r.id
}

// SetObserver registers a callback invoked for every event the lane
// records (even ones the bounded buffer then drops), letting an external
// journal mirror window milestones without a second emission site in the
// executor. The observer runs under the lane mutex and must not call back
// into the recorder. Call before the run starts; nil clears. No-op on a
// nil recorder.
func (r *Recorder) SetObserver(f func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observer = f
}

// since returns at as nanoseconds after the lane's base instant, which the
// first instant the lane sees fixes. Caller holds r.mu.
func (r *Recorder) since(at time.Time) int64 {
	if !r.based {
		r.base, r.based = at, true
	}
	return int64(at.Sub(r.base))
}

// event rebuilds the Event a kept record stands for.
func (r *Recorder) event(le *laneEvent) Event {
	ev := Event{
		Kind: le.kind, Start: r.base.Add(time.Duration(le.start)), Dur: time.Duration(le.dur),
		Obj: le.obj, Begin: le.begin, Finish: le.finish, Rows: int(le.rows),
		Buckets: le.buckets, Cost: time.Duration(le.cost), Fanout: int(le.fanout),
		Detail: r.strs.Get(le.detail), HasWindow: le.window,
	}
	if le.kind == KindRun {
		ev.Alert, ev.Begin = event.EventID(le.begin), 0
	}
	if le.shards > 0 {
		ev.ShardRows = r.rows[le.shards-1:][:le.nshards:le.nshards]
	}
	return ev
}

// eventsLocked rebuilds the kept events, oldest first.
func (r *Recorder) eventsLocked() []Event {
	out := make([]Event, r.n)
	for i := range out {
		out[i] = r.event(r.events.At(i))
	}
	return out
}

func (r *Recorder) appendLocked(le laneEvent, detail string) {
	le.detail = r.strs.Intern(detail)
	if r.observer != nil {
		r.observer(r.event(&le))
	}
	if r.n >= r.max {
		r.dropped++
		return
	}
	*r.events.At(r.n) = le
	r.n++
}

// Consume folds a stage of the run loop's records into the lane under one
// lock: the window lifecycle (enqueue, re-split, query with the cost and
// shard split staged ahead of it, abandon), one graph update per added edge,
// and the run's start and end, each at the stamp the executor gave it.
// Nil-safe.
func (r *Recorder) Consume(s *explain.Stage) {
	if r == nil || len(s.Recs) == 0 {
		return
	}
	r.mu.Lock()
	var shift int64 // zero for the run whose start is the base: no subtraction per flush
	if !r.based || s.Base != r.base {
		shift = r.since(s.Base)
	}
	for i := range s.Recs {
		d := &s.Recs[i]
		at := d.At + shift
		switch d.Kind {
		case explain.KindRunStart:
			r.runStartLocked(at, d.Event)
		case explain.KindWindowEnqueued:
			r.appendLocked(windowEvent(KindEnqueue, at, d), "")
		case explain.KindWindowResplit:
			r.appendLocked(windowEvent(KindResplit, at, d), "")
		case explain.KindQueryStart:
			r.queryStart = at
		case explain.KindCharge:
			r.pendingBuckets += d.Begin
			r.pendingCost += d.Finish
		case explain.KindScatter:
			r.pendingFanout = max(r.pendingFanout, int(d.Card))
			split := s.Rows[d.Begin : d.Begin+d.Finish]
			if len(split) > len(r.pendingShardRows) {
				r.pendingShardRows = append(r.pendingShardRows, make([]int64, len(split)-len(r.pendingShardRows))...)
			}
			for i, n := range split {
				r.pendingShardRows[i] += n
			}
		case explain.KindWindowQueried:
			le := windowEvent(KindQuery, r.queryStart, d)
			le.dur = at - r.queryStart
			r.queryLocked(le)
		case explain.KindEdgeAdded:
			if d.Event != r.alert { // the alert edge seeds the graph; it is no update
				r.updateLocked(at)
			}
		case explain.KindWindowAbandoned:
			r.appendLocked(windowEvent(KindAbandon, at, d), s.Strs[d.Detail-1])
		case explain.KindRunEnd:
			r.runEndLocked(at, s.Strs[d.Detail-1])
		}
	}
	r.mu.Unlock()
}

// windowEvent is the lane event of a staged window record: its object, its
// range, and its cardinality (estimate or retrieved rows) as Rows.
func windowEvent(kind Kind, start int64, d *explain.Decision) laneEvent {
	return laneEvent{kind: kind, start: start, obj: d.Node, begin: d.Begin, finish: d.Finish, rows: d.Card, window: true}
}

// RunStart opens the run: the watchdog anchor starts here, so a run that
// never updates still stalls (time-to-first-update is part of the SLO).
func (r *Recorder) RunStart(at time.Time, alert event.EventID) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.runStartLocked(r.since(at), alert)
	r.mu.Unlock()
}

func (r *Recorder) runStartLocked(at int64, alert event.EventID) {
	r.runStart, r.started = at, true
	r.alert = alert
	r.anchor, r.anchored = at, true
	r.haveHeavy = false
}

// RunEnd closes the run: the tail gap is checked (a run may stall by
// ending long after its last update), any open pause is closed, and the
// whole run becomes one "X" span carrying the stop reason.
func (r *Recorder) RunEnd(at time.Time, reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.runEndLocked(r.since(at), reason)
	r.mu.Unlock()
}

func (r *Recorder) runEndLocked(at int64, reason string) {
	if r.pausedOpen {
		r.appendLocked(laneEvent{kind: KindPause, start: r.pauseStart, dur: at - r.pauseStart}, "")
		r.pausedOpen = false
	}
	if r.anchored && at > r.anchor {
		r.checkGapLocked(at)
	}
	start := r.runStart
	if !r.started {
		start = at
	}
	r.appendLocked(laneEvent{kind: KindRun, start: start, dur: at - start, begin: int64(r.alert)}, reason)
	r.anchored = false
}

// Update marks a graph update batch. Updates sharing one clock instant
// (edges of a single retrieval, on a clock only charges move) are one
// update, mirroring the executor's inter-update-gap histogram; the watchdog
// measures gaps between distinct instants and fires a stall when one exceeds
// the limit.
func (r *Recorder) Update(at time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.updateLocked(r.since(at))
	r.mu.Unlock()
}

func (r *Recorder) updateLocked(at int64) {
	r.updates++
	if r.anchored && at <= r.anchor {
		return
	}
	if r.anchored {
		r.checkGapLocked(at)
	}
	r.anchor, r.anchored = at, true
	r.haveHeavy = false
	r.appendLocked(laneEvent{kind: KindUpdate, start: at}, "")
}

// checkGapLocked runs the watchdog for the gap [r.anchor, at]: it tracks
// the worst gap and records a stall — a trace span covering the whole gap,
// a report entry naming the heaviest query inside it, and the
// aptrace_slo_stall_total counter — when the gap exceeds the limit.
func (r *Recorder) checkGapLocked(at int64) {
	gap := time.Duration(at - r.anchor)
	if gap > r.worstGap {
		r.worstGap = gap
	}
	if r.limit <= 0 || gap <= r.limit {
		return
	}
	st := Stall{Lane: r.id, LaneName: r.name, At: r.base.Add(time.Duration(r.anchor)), Gap: gap}
	le := laneEvent{kind: KindStall, start: r.anchor, dur: int64(gap)}
	if r.haveHeavy {
		h := r.heavy
		st.Obj, st.Begin, st.Finish = h.obj, h.begin, h.finish
		st.Rows, st.Cost, st.HasWindow = int(h.rows), time.Duration(h.cost), true
		le.obj, le.begin, le.finish, le.rows = h.obj, h.begin, h.finish, h.rows
		le.buckets, le.cost, le.window = h.buckets, h.cost, true
	}
	r.stalls = append(r.stalls, st)
	r.appendLocked(le, "")
	r.stallCtr.Inc()
}

// queryLocked records one bounded window query as a span, claiming the cost
// and shard split staged since the previous claim. The heaviest query since
// the last update is remembered as the watchdog's stall offender.
func (r *Recorder) queryLocked(le laneEvent) {
	r.queries++
	le.buckets, le.cost, le.fanout = r.pendingBuckets, r.pendingCost, uint8(r.pendingFanout)
	if n := len(r.pendingShardRows); n > 0 && r.n < r.max {
		le.shards, le.nshards = uint32(len(r.rows))+1, uint8(n)
		r.rows = append(r.rows, r.pendingShardRows...)
	}
	r.pendingBuckets, r.pendingCost = 0, 0
	r.pendingFanout, r.pendingShardRows = 0, r.pendingShardRows[:0]
	if !r.haveHeavy || le.cost > r.heavy.cost ||
		(le.cost == r.heavy.cost && le.rows > r.heavy.rows) {
		r.heavy, r.haveHeavy = le, true
	}
	r.appendLocked(le, "")
}

// Pause opens an analyst pause; Resume (or RunEnd) closes it.
func (r *Recorder) Pause(at time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.pausedOpen {
		r.pauseStart, r.pausedOpen = r.since(at), true
	}
	r.mu.Unlock()
}

// Resume closes the open pause and restarts the watchdog clock: paused
// time is analyst-chosen, not an executor stall, so the anchor moves to
// the resume instant.
func (r *Recorder) Resume(at time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.pausedOpen {
		now := r.since(at)
		r.appendLocked(laneEvent{kind: KindPause, start: r.pauseStart, dur: now - r.pauseStart}, "")
		r.pausedOpen = false
		if r.anchored {
			r.anchor = now
		}
	}
	r.mu.Unlock()
}

// PlanUpdate marks a mid-run BDL script swap; detail carries the diff
// summary the session journal records.
func (r *Recorder) PlanUpdate(at time.Time, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.appendLocked(laneEvent{kind: KindPlan, start: r.since(at)}, detail)
	r.mu.Unlock()
}
