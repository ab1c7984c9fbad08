// Package explain is APTrace's decision flight recorder: a ring-buffered
// journal of every verdict the analysis engine reaches while it grows (or
// declines to grow) the dependency graph. Metrics (internal/telemetry) say
// how fast the analysis ran; this package says *why* it produced the graph
// it did — which BDL where clause deleted a candidate, which window an edge
// was discovered in, why a frontier was abandoned when a budget expired.
//
// The recorder follows the same no-op-when-disabled discipline as
// internal/telemetry: every emission method is defined on a nil-safe pointer
// receiver, so instrumented code records unconditionally and a nil *Recorder
// costs a single pointer test (see BenchmarkDisabledEmission). Records carry
// analysis-clock timestamps, so a run under the simulated clock produces a
// deterministic trace, and one recorder belongs to one analysis — fleet
// workers each attach their own, keeping parallel runs byte-identical to
// serial ones.
//
// On top of the raw trace, Explain (query.go) walks the records and
// assembles a causal justification for any object the analysis touched:
// "included via edge e at hop 3, window [t1,t2)" for graph nodes, a concrete
// excluding clause or budget reason for pruned candidates.
//
// The log's other readers are its timeline: logs bound as lanes (Bind) before
// dispatch export as one Chrome trace (trace.go) — window lifecycle, charged
// query costs, updates, pauses — and feed the inter-update-gap SLO report
// (report.go). Every instant is the run's (simulated) clock, never wall time,
// so the trace does not depend on scheduling.
package explain

import (
	"fmt"
	"sync"
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
	"aptrace/internal/pages"
	"aptrace/internal/simclock"
	"aptrace/internal/telemetry"
)

// Kind classifies a decision record.
type Kind uint8

const (
	// KindRunStart opens a run: Event is the alert, Node its flow
	// destination (the hop-0 object), Begin/Finish the analysis range.
	KindRunStart Kind = iota
	// KindEdgeAdded: the candidate event became a graph edge. Node is the
	// newly reached object, Peer the already-known endpoint, Begin/Finish
	// the execution window the edge was discovered in, Hop the new
	// object's path length, Boost the prioritize-rule verdict.
	KindEdgeAdded
	// KindEdgeDedup: the candidate event is already an edge of the graph —
	// the alert edge, which seeded it without a query (no query of a run
	// returns an event twice).
	KindEdgeDedup
	// KindEdgeDropped: the candidate's object was rejected by the where
	// statement earlier in the run and stays deleted from the analysis.
	KindEdgeDropped
	// KindEdgeHostFiltered: an endpoint host fails the general "in"
	// constraint.
	KindEdgeHostFiltered
	// KindEdgeWhereRejected: the where statement deleted the candidate
	// object. Clause holds the BDL text of the deciding clause and Pos its
	// script position.
	KindEdgeWhereRejected
	// KindEdgeHopBudget: the edge would extend a path beyond the "hop"
	// budget. Hop carries the length the path would have reached.
	KindEdgeHopBudget
	// KindWindowEnqueued: an execution window entered the priority queue.
	// Card is the index-only cardinality estimate, State/Boost the
	// scheduling priority inputs.
	KindWindowEnqueued
	// KindWindowEmpty: the window was provably empty at enqueue time and
	// never entered the queue.
	KindWindowEmpty
	// KindWindowResplit: the window exceeded the per-retrieval row cap and
	// was split in half instead of being queried. Card is the row estimate
	// that triggered the split.
	KindWindowResplit
	// KindWindowQueried: the window ran as one bounded query; Card is the
	// number of rows retrieved, Query locates what the query cost.
	KindWindowQueried
	// KindWindowAbandoned: the run ended with this window still queued.
	// Detail carries the stop reason (time budget, analyst stop).
	KindWindowAbandoned
	// KindPlanUpdate: the analyst swapped in a new script version. Detail
	// summarizes the delta, Clause the refiner's resume decision.
	KindPlanUpdate
	// KindPause and KindResume bracket analyst pauses.
	KindPause
	KindResume
	// KindFinalize: tracking-statement path pruning removed Card edges.
	KindFinalize
	// KindMemoHit and KindMemoMiss record cross-alert memo cache verdicts:
	// Node is the queried object, Begin/Finish the analysis range, Card the
	// rows charged (replayed on a hit, walked on a miss), Detail the cached
	// attribute ("readonly", "write-through", "file-times"). A hit changes
	// no charged cost — only real CPU — so these records are how a trace
	// shows where the cache intervened.
	KindMemoHit
	KindMemoMiss

	// KindRunEnd closes the run: Detail is the stop reason. It is no
	// decision: the log keeps a run's end beside the ring, so it takes no
	// sequence number and is never read back as a Record.
	KindRunEnd
)

var kindNames = [...]string{
	KindRunStart:          "run-start",
	KindEdgeAdded:         "edge-added",
	KindEdgeDedup:         "edge-dedup",
	KindEdgeDropped:       "edge-dropped",
	KindEdgeHostFiltered:  "edge-host-filtered",
	KindEdgeWhereRejected: "edge-where-rejected",
	KindEdgeHopBudget:     "edge-hop-budget",
	KindWindowEnqueued:    "window-enqueued",
	KindWindowEmpty:       "window-empty",
	KindWindowResplit:     "window-resplit",
	KindWindowQueried:     "window-queried",
	KindWindowAbandoned:   "window-abandoned",
	KindPlanUpdate:        "plan-update",
	KindPause:             "pause",
	KindResume:            "resume",
	KindFinalize:          "finalize",
	KindMemoHit:           "memo-hit",
	KindMemoMiss:          "memo-miss",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Record is one decision as readers see it, rebuilt from the compact
// Decision the recorder keeps. Field meaning varies by Kind (see the Kind
// constants); unused fields are zero.
type Record struct {
	Seq    uint64        `json:"seq"`
	Kind   Kind          `json:"kind"`
	At     time.Time     `json:"at"`
	Event  event.EventID `json:"event,omitempty"`
	Node   event.ObjID   `json:"node"`
	Peer   event.ObjID   `json:"peer,omitempty"`
	Hop    int           `json:"hop,omitempty"`
	Begin  int64         `json:"begin,omitempty"`
	Finish int64         `json:"finish,omitempty"`
	Card   int           `json:"card,omitempty"`
	State  int           `json:"state,omitempty"`
	Boost  int           `json:"boost,omitempty"`
	Clause string        `json:"clause,omitempty"`
	Pos    string        `json:"pos,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// DefaultCapacity is the ring size of a log created with capacity <= 0:
// large enough to hold every decision of the paper-scale analyses, small
// enough (4 MB when full) to attach to each fleet worker.
const DefaultCapacity = 1 << 16

// Recorder is a run's log, the one place its records live: a fixed-capacity
// ring of decisions, kept as 64-byte pointer-free records in pages that are
// allocated when first written and reused when the ring wraps, so a run that
// decides little pays for little and the collector never scans what is kept.
// When the ring is full the oldest records are overwritten and the
// aptrace_explain_dropped_total counter says so — overflow is visible, not
// silent — while the run's Progress stays complete, because every record is
// folded into a Watch as it arrives. The run loop feeds the log a stage at a
// time (Consume); EXPLAIN (query.go), the Chrome trace (trace.go) and the
// SLO report (report.go) rebuild Records and Events on read. A nil *Recorder
// is a valid disabled log: every method is a no-op behind one pointer test.
type Recorder struct {
	mu       sync.Mutex
	ring     pages.Pages[Decision] // slot Seq % capacity
	capacity int
	seq      uint64 // total records emitted (next Seq)
	pos      int    // records written in the current lap of the ring
	lap      int    // seq / capacity of the newest record, kept by counting
	clk      simclock.Clock
	base     time.Time // Decision.At counts from here; the first record's instant
	based    bool
	strs     Strings
	// nums holds the query costs of the window-queried records, one slice
	// per lap of the ring by parity: a lap's slice is emptied when the lap
	// after next begins, by when the ring holds none of its records.
	nums [2][]int64
	lane int64  // the lane this log is bound to (0 = none) ...
	name string // ... and its name

	// live is the fold of every record emitted; ends are the runs' ends by
	// position in the record sequence.
	live Watch
	ends []runEnd

	reg        *telemetry.Registry // where Bind finds the stall counter
	telRecords *telemetry.Counter
	telDropped *telemetry.Counter
}

// runEnd is a run's end, after the records before seq: the span it closed
// (start to at), the run's alert, and the stop reason.
type runEnd struct {
	seq       uint64
	start, at int64
	alert     event.EventID
	reason    uint32
}

// New returns a log holding the most recent capacity records
// (DefaultCapacity if capacity <= 0). reg, if non-nil, receives the
// aptrace_explain_records_total / aptrace_explain_dropped_total counters,
// and the aptrace_slo_stall_total counter once the log is bound.
func New(capacity int, reg *telemetry.Registry) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{
		capacity:   capacity,
		reg:        reg,
		telRecords: reg.Counter(telemetry.MetricExplainRecords),
		telDropped: reg.Counter(telemetry.MetricExplainDropped),
	}
	r.live.log = r
	return r
}

// Attach is the executor taking the log. clk is the analysis clock that
// records emitted outside the run loop (pause, resume, plan update, finalize,
// memo verdicts reached outside a window) are stamped with — the run loop's own carry the executor's
// stamp of the same clock, so every record carries simulated time under the
// cost model; without a clock those are stamped zero. gaps, if non-nil,
// receives every inter-update gap. Nil-safe.
func (r *Recorder) Attach(clk simclock.Clock, gaps *telemetry.Histogram) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clk, r.live.Gaps = clk, gaps
	r.mu.Unlock()
}

// Bind makes the log lane number lane of a trace: its spans, stalls and
// trace carry the lane's id and name, and its watchdog records a stall —
// counted in the aptrace_slo_stall_total counter of the registry the log was
// made with — for every inter-update gap over limit (DefaultStallFactor × the
// SLO gap target, as aptrace and the triage daemon bind it). Call before the
// run.
func (r *Recorder) Bind(lane int64, name string, limit time.Duration) {
	stalls := r.reg.Counter(telemetry.MetricSLOStalls)
	r.mu.Lock()
	r.lane, r.name = lane, name
	r.live.limit = limit
	r.live.stallCtr = stalls
	r.mu.Unlock()
}

// since returns at as nanoseconds after the log's base instant, which
// the first record fixes. Caller holds r.mu.
func (r *Recorder) since(at time.Time) int64 {
	if !r.based {
		r.base, r.based = at, true
	}
	return int64(at.Sub(r.base))
}

// Consume appends a stage of run-loop records: one pass, one lock and one
// counter add for all of them. They keep the stamps the executor gave them
// (its cached reading of the analysis clock, see core.Executor.at) and take
// consecutive sequence numbers in stage order. Nil-safe.
func (r *Recorder) Consume(s *Stage) {
	if r == nil || len(s.Recs) == 0 {
		return
	}
	r.mu.Lock()
	first := r.seq
	var shift int64 // zero for the run whose start is the base: no subtraction per flush
	if !r.based || s.Base != r.base {
		shift = r.since(s.Base)
	}
	for i := range s.Recs {
		d := &s.Recs[i]
		var clause, detail uint32
		if d.Clause != 0 {
			clause = r.strs.Intern(s.Strs[d.Clause-1])
		}
		if d.Detail != 0 {
			detail = r.strs.Intern(s.Strs[d.Detail-1])
		}
		r.add(d, d.At+shift, clause, detail, s.Nums)
	}
	last := r.seq
	r.mu.Unlock()
	r.count(first, last)
}

// add appends *d stamped at, its strings interned as clause and detail and
// its query cost, if any, read from nums, and folds it into the live watch.
// A run's end takes no slot. Caller holds r.mu.
func (r *Recorder) add(d *Decision, at int64, clause, detail uint32, nums []int64) {
	if d.Kind == KindRunEnd {
		r.ends = append(r.ends, runEnd{r.seq, r.live.end(at, detail), at, r.live.alert, detail})
		return
	}
	slot := r.next()
	*slot = *d
	slot.At, slot.Clause, slot.Detail = at, clause, detail
	side := &r.nums[r.lap&1]
	if d.Query != 0 {
		cost := nums[d.Query-1:]
		slot.Query = uint32(len(*side)) + 1
		*side = append(*side, cost[:queryHead]...)
		(*side)[slot.Query-1] += at - d.At // the query's start moves to the log's base with its end
	}
	r.live.Step(r.seq-1, slot, *side)
}

// next takes the slot of the next sequence number, the oldest record's once
// the ring has wrapped. Caller holds r.mu.
func (r *Recorder) next() *Decision {
	if r.pos == r.capacity {
		r.pos = 0
		r.lap++
		r.nums[r.lap&1] = r.nums[r.lap&1][:0]
	}
	r.seq++
	r.pos++
	return r.ring.At(r.pos - 1)
}

// note appends one record from outside the run loop — the session's
// goroutines, and memo lookups outside a window — stamped with the bound
// clock's own reading, so no stamp crosses goroutines. Nil-safe.
func (r *Recorder) note(d Decision, clause, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	var now time.Time
	if r.clk != nil {
		now = r.clk.Now()
	}
	first := r.seq
	r.add(&d, r.since(now), r.strs.Intern(clause), r.strs.Intern(detail), nil)
	last := r.seq
	r.mu.Unlock()
	r.count(first, last)
}

// count publishes the emissions [first, last) — and those of them that
// overwrote a record, past the ring's capacity — to telemetry.
func (r *Recorder) count(first, last uint64) {
	r.telRecords.Add(int64(last - first))
	if kept := max(first, uint64(r.capacity)); last > kept {
		r.telDropped.Add(int64(last - kept))
	}
}

// The emission methods below are for callers outside the run loop; they read
// the bound clock. The memo view's is for verdicts reached outside a window
// (the executor stages the rest), so it tests for a disabled log before it
// builds anything; the session's are note's.

// MemoVerdict records a memo-cache lookup: hit says whether the cached
// verdict was served, what names the cached attribute ("readonly",
// "write-through", "file-times"), node/wb/wf identify the (object, range)
// key, and rows is the row count replayed or walked.
func (r *Recorder) MemoVerdict(hit bool, what string, node event.ObjID, wb, wf int64, rows int) {
	if r == nil {
		return
	}
	k := KindMemoMiss
	if hit {
		k = KindMemoHit
	}
	r.note(Decision{Kind: k, Node: node, Begin: wb, Finish: wf, Card: int32(rows)}, "", what)
}

// PlanUpdate records a script change: decision is the refiner's resume
// action, delta a human-readable summary of what changed.
func (r *Recorder) PlanUpdate(decision, delta string) {
	r.note(Decision{Kind: KindPlanUpdate}, decision, delta)
}

// Pause records the analyst pausing the run.
func (r *Recorder) Pause() {
	r.note(Decision{Kind: KindPause}, "", "")
}

// Resume records the analyst resuming the run.
func (r *Recorder) Resume() {
	r.note(Decision{Kind: KindResume}, "", "")
}

// Finalize records tracking-statement path pruning removing removed edges.
func (r *Recorder) Finalize(removed int) {
	r.note(Decision{Kind: KindFinalize, Card: int32(removed)}, "", "")
}

// Cursor is a retained record in place, number Seq of its log, as Scan hands
// it to its callback: good for that call alone.
type Cursor struct {
	*Decision
	Seq uint64
	log *Recorder
}

// Scan calls f with every retained record in place, oldest first, until f
// returns false. It holds the log's lock throughout: f must not keep the
// cursor's Decision, nor call the log. Nil-safe.
func (r *Recorder) Scan(f func(Cursor) bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for seq := r.oldest(); seq < r.seq; seq++ {
		if !f(Cursor{r.ring.Get(int(seq % uint64(r.capacity))), seq, r}) {
			return
		}
	}
}

// oldest is the sequence number of the oldest retained record. Caller holds
// r.mu.
func (r *Recorder) oldest() uint64 {
	return r.seq - min(r.seq, uint64(r.capacity))
}

// Time is the instant the record was stamped with.
func (c Cursor) Time() time.Time { return c.log.base.Add(time.Duration(c.At)) }

// Record rebuilds the record as readers see it, strings resolved.
func (c Cursor) Record() Record {
	d, r := c.Decision, c.log
	rec := Record{
		Seq: c.Seq, Kind: d.Kind, At: c.Time(),
		Event: d.Event, Node: d.Node, Peer: d.Peer, Hop: int(d.Hop),
		Begin: d.Begin, Finish: d.Finish,
		Card: int(d.Card), State: int(d.State), Boost: int(d.Boost),
		Clause: r.strs.Get(d.Clause), Detail: r.strs.Get(d.Detail),
	}
	if d.Kind == KindEdgeWhereRejected {
		rec.Pos = bdl.Pos{Line: int(d.Begin), Col: int(d.Finish)}.String()
		rec.Begin, rec.Finish = 0, 0
	}
	return rec
}

// Records returns the retained records in emission order (oldest first).
// Nil-safe: a disabled log returns nil.
func (r *Recorder) Records() []Record {
	var out []Record
	r.Scan(func(c Cursor) bool {
		if out == nil {
			out = make([]Record, 0, r.seq-c.Seq)
		}
		out = append(out, c.Record())
		return true
	})
	return out
}

// Stats reports how many records were emitted in total and how many were
// overwritten by ring overflow.
func (r *Recorder) Stats() (emitted, dropped uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq, r.oldest()
}

// CountByKind tallies the retained records per kind name — the breakdown
// journal entries and benchmark summaries report.
func (r *Recorder) CountByKind() map[string]int {
	var n [KindRunEnd]int
	r.Scan(func(c Cursor) bool {
		n[c.Kind]++
		return true
	})
	out := make(map[string]int)
	for k, c := range n {
		if c > 0 {
			out[Kind(k).String()] = c
		}
	}
	return out
}
