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
	// KindEdgeDedup: the candidate event is already an edge of the graph.
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
	// number of rows retrieved.
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
	// Node is the queried object, Begin/Finish the window, Card the row
	// count served (hit) or computed (miss), Detail the cached query kind
	// (backward rows, forward rows, or a computed attribute). A hit changes
	// no charged cost — only real CPU — so these records are how a trace
	// shows where the cache intervened.
	KindMemoHit
	KindMemoMiss

	// The kinds from here on exist only in a Stage: what the run loop tells
	// its timeline lane and its spans besides the decisions. The recorder
	// skips them, so they take no sequence number and are never read back.

	// KindQueryStart opens a window query: At is the instant before the
	// fetch (KindWindowQueried carries the instant after), Card the
	// enqueue-time estimate the scheduler priced the window at.
	KindQueryStart
	// KindCharge is one charged store query: Begin the posting buckets
	// walked, Finish the modeled cost in nanoseconds. Not stamped.
	KindCharge
	// KindScatter is one routed query's shard split: Card the fan-out,
	// Stage.Rows[Begin:Begin+Finish] the rows per shard. Not stamped.
	KindScatter
	// KindRunEnd closes the run: Detail is the stop reason.
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

// DefaultCapacity is the ring size of a recorder created with capacity <= 0:
// large enough to hold every decision of the paper-scale analyses, small
// enough (4 MB when full) to attach to each fleet worker.
const DefaultCapacity = 1 << 16

// Recorder is the flight recorder: a fixed-capacity ring of decisions, kept
// as 64-byte pointer-free records in pages that are allocated when first
// written and reused when the ring wraps, so a run that decides little pays
// for little and the collector never scans what is kept. When the ring is
// full the oldest records are overwritten and the
// aptrace_explain_dropped_total counter says so — overflow is visible, not
// silent. The run loop feeds it a stage at a time (Consume: one lock, one
// counter add per flush); Records, Explain and the dump rebuild Records on
// read. A nil *Recorder is a valid disabled recorder: every method is a
// no-op behind one pointer test.
type Recorder struct {
	mu       sync.Mutex
	ring     pages.Pages[Decision] // slot Seq % capacity
	capacity int
	seq      uint64 // total records emitted (next Seq)
	pos      int    // seq % capacity, kept by counting: the slot of the next record
	clk      simclock.Clock
	base     time.Time // Decision.At counts from here; the first record's instant
	based    bool
	strs     Strings

	telRecords *telemetry.Counter
	telDropped *telemetry.Counter
}

// New returns a recorder holding the most recent capacity records
// (DefaultCapacity if capacity <= 0). reg, if non-nil, receives the
// aptrace_explain_records_total / aptrace_explain_dropped_total counters.
func New(capacity int, reg *telemetry.Registry) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		capacity:   capacity,
		telRecords: reg.Counter(telemetry.MetricExplainRecords),
		telDropped: reg.Counter(telemetry.MetricExplainDropped),
	}
}

// SetClock binds the analysis clock that records emitted outside the run
// loop (pause, resume, plan update, finalize, memo verdicts) are stamped
// with; the run loop's own records carry the executor's stamp of the same
// clock. The executor calls this when the recorder is attached, so every
// record carries simulated time under the cost model. Nil-safe; without a
// clock those records are stamped zero.
func (r *Recorder) SetClock(clk simclock.Clock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clk = clk
	r.mu.Unlock()
}

// since returns at as nanoseconds after the recorder's base instant, which
// the first record fixes. Caller holds r.mu.
func (r *Recorder) since(at time.Time) int64 {
	if !r.based {
		r.base, r.based = at, true
	}
	return int64(at.Sub(r.base))
}

// Consume appends a stage of run-loop records: one lock and one counter add
// for all of them. They keep the stamps the executor gave them (its cached
// reading of the analysis clock, see core.Executor.at) and take consecutive
// sequence numbers in stage order; the stage's lane-only kinds are skipped.
// Nil-safe.
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
		if d.Kind >= KindQueryStart {
			continue
		}
		slot := r.next()
		*slot = *d
		slot.At += shift
		if d.Detail != 0 {
			slot.Detail = r.strs.Intern(s.Strs[d.Detail-1])
		}
		if d.Clause != 0 {
			slot.Clause = r.strs.Intern(s.Strs[d.Clause-1])
		}
	}
	last := r.seq
	r.mu.Unlock()
	r.count(first, last)
}

// next takes the slot of the next sequence number. Caller holds r.mu.
func (r *Recorder) next() *Decision {
	slot := r.ring.At(r.pos)
	r.seq++
	if r.pos++; r.pos == r.capacity {
		r.pos = 0
	}
	return slot
}

// addNow appends one record from outside the run loop — the session's
// goroutines, and memo lookups that sit inside a charging call — stamped
// with the bound clock's own reading, so no stamp crosses goroutines.
func (r *Recorder) addNow(d Decision, clause, detail string) {
	r.mu.Lock()
	var at time.Time
	if r.clk != nil {
		at = r.clk.Now()
	}
	d.At = r.since(at)
	d.Clause, d.Detail = r.strs.Intern(clause), r.strs.Intern(detail)
	*r.next() = d
	last := r.seq
	r.mu.Unlock()
	r.count(last-1, last)
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
// the bound clock. Each is an inlinable nil check in front of addNow, so a
// disabled recorder costs one pointer test per call site.

// MemoVerdict records a memo-cache lookup: hit says whether the cached
// closure was served, what names the cached query kind ("backward",
// "forward", "readonly", "write-through", "file-times"), node/wb/wf identify
// the (object, window) key, and rows is the row count served or computed.
func (r *Recorder) MemoVerdict(hit bool, what string, node event.ObjID, wb, wf int64, rows int) {
	if r == nil {
		return
	}
	k := KindMemoMiss
	if hit {
		k = KindMemoHit
	}
	r.addNow(Decision{Kind: k, Node: node, Begin: wb, Finish: wf, Card: int32(rows)}, "", what)
}

// PlanUpdate records a script change: decision is the refiner's resume
// action, delta a human-readable summary of what changed.
func (r *Recorder) PlanUpdate(decision, delta string) {
	if r == nil {
		return
	}
	r.addNow(Decision{Kind: KindPlanUpdate}, decision, delta)
}

// Pause records the analyst pausing the run.
func (r *Recorder) Pause() {
	if r == nil {
		return
	}
	r.addNow(Decision{Kind: KindPause}, "", "")
}

// Resume records the analyst resuming the run.
func (r *Recorder) Resume() {
	if r == nil {
		return
	}
	r.addNow(Decision{Kind: KindResume}, "", "")
}

// Finalize records tracking-statement path pruning removing removed edges.
func (r *Recorder) Finalize(removed int) {
	if r == nil {
		return
	}
	r.addNow(Decision{Kind: KindFinalize, Card: int32(removed)}, "", "")
}

// Records returns the retained records in emission order (oldest first).
// Nil-safe: a disabled recorder returns nil.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq == 0 {
		return nil
	}
	oldest := r.seq - min(r.seq, uint64(r.capacity))
	out := make([]Record, 0, r.seq-oldest)
	for seq := oldest; seq < r.seq; seq++ {
		d := r.ring.At(int(seq % uint64(r.capacity)))
		rec := Record{
			Seq: seq, Kind: d.Kind, At: r.base.Add(time.Duration(d.At)),
			Event: d.Event, Node: d.Node, Peer: d.Peer, Hop: int(d.Hop),
			Begin: d.Begin, Finish: d.Finish,
			Card: int(d.Card), State: int(d.State), Boost: int(d.Boost),
			Clause: r.strs.Get(d.Clause), Detail: r.strs.Get(d.Detail),
		}
		if d.Kind == KindEdgeWhereRejected {
			rec.Pos = bdl.Pos{Line: int(d.Begin), Col: int(d.Finish)}.String()
			rec.Begin, rec.Finish = 0, 0
		}
		out = append(out, rec)
	}
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
	return r.seq, r.seq - min(r.seq, uint64(r.capacity))
}

// CountByKind tallies the retained records per kind name — the breakdown
// journal entries and benchmark summaries report.
func (r *Recorder) CountByKind() map[string]int {
	out := make(map[string]int)
	for _, rec := range r.Records() {
		out[rec.Kind.String()]++
	}
	return out
}
