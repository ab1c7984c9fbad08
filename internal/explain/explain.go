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

// Record is one decision. Field meaning varies by Kind (see the Kind
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
// enough (~8 MB) to attach to each fleet worker.
const DefaultCapacity = 1 << 16

// Recorder is the flight recorder: a fixed-capacity ring of decision
// records. Its storage grows with the records actually emitted, up to the
// capacity, so a run that decides little pays for little. When the ring is
// full the oldest records are overwritten and the
// aptrace_explain_dropped_total counter says so — overflow is visible, not
// silent. A nil *Recorder is a valid disabled recorder: every method is a
// no-op behind one pointer test.
type Recorder struct {
	mu       sync.Mutex
	ring     []Record // len grows by append to capacity, then wraps at Seq % capacity
	capacity int
	seq      uint64 // total records emitted (next Seq)
	dropped  uint64
	clk      simclock.Clock

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

// add appends one record from the run loop. The executor stamps it: at is
// its cached reading of the analysis clock, taken at the last point where
// that clock could have moved, so the records of one window share one read.
func (r *Recorder) add(at time.Time, rec Record) {
	rec.At = at
	r.mu.Lock()
	seq := r.appendLocked(rec)
	r.mu.Unlock()
	r.count(seq)
}

// addNow appends one record from outside the run loop — the session's
// goroutines, and memo lookups that sit inside a charging call — stamped
// with the bound clock's own reading, so no stamp crosses goroutines.
func (r *Recorder) addNow(rec Record) {
	r.mu.Lock()
	if r.clk != nil {
		rec.At = r.clk.Now()
	}
	seq := r.appendLocked(rec)
	r.mu.Unlock()
	r.count(seq)
}

// appendLocked stores the record under the next sequence number, which it
// returns.
func (r *Recorder) appendLocked(rec Record) uint64 {
	rec.Seq = r.seq
	r.seq++
	if len(r.ring) < r.capacity {
		if len(r.ring) == cap(r.ring) && len(r.ring) >= r.capacity/16 {
			// A run that came this far usually fills the ring. Doubling the
			// rest of the way would allocate the ring twice over and copy it
			// once; take the remainder in one step.
			r.ring = append(make([]Record, 0, r.capacity), r.ring...)
		}
		r.ring = append(r.ring, rec)
	} else {
		r.ring[int(rec.Seq)%r.capacity] = rec
		r.dropped++
	}
	return rec.Seq
}

// count publishes one emission (and, past the ring's capacity, one
// overwrite) to telemetry.
func (r *Recorder) count(seq uint64) {
	r.telRecords.Inc()
	if seq >= uint64(r.capacity) {
		r.telDropped.Inc()
	}
}

// The emission methods below are split into an inlinable nil check and an
// unexported slow path, so a disabled recorder costs one pointer test at
// every call site (the ≤2 ns/op contract asserted by BenchmarkDisabledEmission).
// Methods the run loop calls take the record's time, at, from the caller;
// the others read the bound clock.

// RunStart records the start of an analysis from alert.
func (r *Recorder) RunStart(at time.Time, alert event.Event, node event.ObjID, from, to int64) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindRunStart, Event: alert.ID, Node: node, Begin: from, Finish: to})
}

// EdgeAdded records an edge landing in the graph: node is the newly reached
// object, peer the known endpoint, [wb,wf) the discovering window.
func (r *Recorder) EdgeAdded(at time.Time, ev event.EventID, node, peer event.ObjID, hop int, wb, wf int64, boost int) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindEdgeAdded, Event: ev, Node: node, Peer: peer, Hop: hop, Begin: wb, Finish: wf, Boost: boost})
}

// EdgeDedup records a candidate already present as a graph edge.
func (r *Recorder) EdgeDedup(at time.Time, ev event.EventID, node event.ObjID) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindEdgeDedup, Event: ev, Node: node})
}

// EdgeDropped records a candidate skipped because its object was already
// deleted by the where statement; peer is the graph-side endpoint the edge
// would have attached to.
func (r *Recorder) EdgeDropped(at time.Time, ev event.EventID, node, peer event.ObjID) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindEdgeDropped, Event: ev, Node: node, Peer: peer})
}

// EdgeHostFiltered records a candidate rejected by the general "in" host
// constraint.
func (r *Recorder) EdgeHostFiltered(at time.Time, ev event.EventID, node, peer event.ObjID, host string) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindEdgeHostFiltered, Event: ev, Node: node, Peer: peer, Detail: host})
}

// EdgeWhereRejected records the where statement deleting a candidate object;
// clause/pos identify the deciding BDL clause.
func (r *Recorder) EdgeWhereRejected(at time.Time, ev event.EventID, node, peer event.ObjID, clause string, pos bdl.Pos) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindEdgeWhereRejected, Event: ev, Node: node, Peer: peer, Clause: clause, Pos: pos.String()})
}

// EdgeHopBudget records a candidate rejected by the hop budget; hop is the
// path length the edge would have reached, limit the budget.
func (r *Recorder) EdgeHopBudget(at time.Time, ev event.EventID, node, peer event.ObjID, hop, limit int) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindEdgeHopBudget, Event: ev, Node: node, Peer: peer, Hop: hop, Card: limit})
}

// WindowEnqueued records an execution window entering the priority queue.
func (r *Recorder) WindowEnqueued(at time.Time, node event.ObjID, wb, wf int64, card, state, boost int) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindWindowEnqueued, Node: node, Begin: wb, Finish: wf, Card: card, State: state, Boost: boost})
}

// WindowEmpty records a window pruned at enqueue time by the index-only
// cardinality estimate.
func (r *Recorder) WindowEmpty(at time.Time, node event.ObjID, wb, wf int64) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindWindowEmpty, Node: node, Begin: wb, Finish: wf})
}

// WindowResplit records a window split instead of queried; card is the row
// estimate that exceeded the cap.
func (r *Recorder) WindowResplit(at time.Time, node event.ObjID, wb, wf int64, card int) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindWindowResplit, Node: node, Begin: wb, Finish: wf, Card: card})
}

// WindowQueried records a window executing as one bounded query retrieving
// rows rows.
func (r *Recorder) WindowQueried(at time.Time, node event.ObjID, wb, wf int64, rows int) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindWindowQueried, Node: node, Begin: wb, Finish: wf, Card: rows})
}

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
	r.addNow(Record{Kind: k, Node: node, Begin: wb, Finish: wf, Card: rows, Detail: what})
}

// WindowAbandoned records a window still queued when the run ended; reason
// is the stop reason.
func (r *Recorder) WindowAbandoned(at time.Time, node event.ObjID, wb, wf int64, reason string) {
	if r == nil {
		return
	}
	r.add(at, Record{Kind: KindWindowAbandoned, Node: node, Begin: wb, Finish: wf, Detail: reason})
}

// PlanUpdate records a script change: decision is the refiner's resume
// action, delta a human-readable summary of what changed.
func (r *Recorder) PlanUpdate(decision, delta string) {
	if r == nil {
		return
	}
	r.addNow(Record{Kind: KindPlanUpdate, Clause: decision, Detail: delta})
}

// Pause records the analyst pausing the run.
func (r *Recorder) Pause() {
	if r == nil {
		return
	}
	r.addNow(Record{Kind: KindPause})
}

// Resume records the analyst resuming the run.
func (r *Recorder) Resume() {
	if r == nil {
		return
	}
	r.addNow(Record{Kind: KindResume})
}

// Finalize records tracking-statement path pruning removing removed edges.
func (r *Recorder) Finalize(removed int) {
	if r == nil {
		return
	}
	r.addNow(Record{Kind: KindFinalize, Card: removed})
}

// Records returns the retained records in emission order (oldest first).
// Nil-safe: a disabled recorder returns nil.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq <= uint64(r.capacity) {
		return append([]Record(nil), r.ring...)
	}
	// The ring wrapped: the oldest record sits at seq % cap.
	out := make([]Record, 0, len(r.ring))
	head := int(r.seq) % r.capacity
	out = append(out, r.ring[head:]...)
	out = append(out, r.ring[:head]...)
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
	return r.seq, r.dropped
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
