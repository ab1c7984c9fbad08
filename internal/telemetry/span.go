package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// SpanArg is one integer annotation attached to a span (rows retrieved,
// cardinality estimates, ...). Args are a slice, not a map, so a record
// marshals deterministically and costs no hashing on the hot path.
type SpanArg struct {
	Key string `json:"k"`
	Val int64  `json:"v"`
}

// SpanRecord is one finished span as stored in the tracer's ring buffer.
type SpanRecord struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"` // 0 = root
	Lane     int64         `json:"lane,omitempty"`   // timeline lane (fleet worker), 0 = none
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Detail   string        `json:"detail,omitempty"`
	Args     []SpanArg     `json:"args,omitempty"`

	lazy lazyDetail // formatted into Detail when Spans exports the record
}

// lazyDetail is a span annotation kept as its format and integer operands:
// the hot path stores three words, and only a span somebody actually reads
// pays for fmt.
type lazyDetail struct {
	format string
	args   [3]int64
	n      uint8
}

func (d *lazyDetail) set(format string, args []int64) {
	d.format = format
	d.n = uint8(copy(d.args[:], args))
}

func (d lazyDetail) String() string {
	args := make([]any, d.n)
	for i := range args {
		args[i] = d.args[i]
	}
	return fmt.Sprintf(d.format, args...)
}

// Span is an in-flight traced operation. Spans are cheap value carriers:
// starting one assigns an ID and a start time; ending one pushes a record
// into the tracer's ring buffer. A nil *Span is a no-op, which is what a
// nil tracer hands out.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	lane   int64
	name   string
	start  time.Time
	detail string
	lazy   lazyDetail
}

// ID returns the span's ID (0 on a nil span).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetDetail attaches a short free-form annotation recorded with the span.
func (s *Span) SetDetail(d string) {
	if s != nil {
		s.detail = d
	}
}

// SetDetailf is SetDetail for an annotation made of up to three integers:
// the format is applied when the span is exported (Tracer.Spans), not here,
// so a per-window span costs no formatting unless it is read. It replaces
// any SetDetail string.
func (s *Span) SetDetailf(format string, args ...int64) {
	if s != nil {
		s.lazy.set(format, args)
	}
}

// SetLane tags the span with a timeline lane ID, so spans from different
// fleet workers are distinguishable in the ring. Zero means no lane.
func (s *Span) SetLane(lane int64) {
	if s != nil {
		s.lane = lane
	}
}

// End finishes the span at the tracer's current time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndAt(s.tr.now())
}

// EndAt finishes the span at an explicit instant — used by code running on
// a simulated clock, where wall time is meaningless.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.tr.record(&SpanRecord{
		ID:       s.id,
		Parent:   s.parent,
		Lane:     s.lane,
		Name:     s.name,
		Start:    s.start,
		Duration: at.Sub(s.start),
		Detail:   s.detail,
		lazy:     s.lazy,
	}, nil)
}

// SetDetailf is Span.SetDetailf for a record handed to Tracer.Emit.
func (r *SpanRecord) SetDetailf(format string, args ...int64) {
	r.lazy.set(format, args)
}

// Tracer records finished spans into a fixed-size ring buffer: cheap,
// bounded, and always holding the most recent activity. A nil *Tracer
// hands out nil spans, so instrumented code needs no enabled check.
//
// Every run's window queries land here, from every fleet worker at once, so
// the ring has no lock of its own: a record claims its slot with one atomic
// add and locks only that slot, and writers never wait for each other.
type Tracer struct {
	nextID atomic.Uint64
	nowFn  atomic.Value // func() time.Time

	written atomic.Uint64 // records claimed so far; record n goes to slot (n-1) % len(ring)
	ring    []spanSlot
}

// spanSlot is one ring position. seq is the claim number of the record it
// holds (0: none yet), so a reader can tell it from an older or newer lap.
type spanSlot struct {
	mu  sync.Mutex
	seq uint64
	rec SpanRecord
}

// NewTracer returns a tracer holding the most recent capacity spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{ring: make([]spanSlot, capacity)}
	t.nowFn.Store(time.Now)
	return t
}

// SetNow replaces the tracer's time source; simulated-clock harnesses point
// it at their clock so span timestamps live in analysis time.
func (t *Tracer) SetNow(fn func() time.Time) {
	if t != nil && fn != nil {
		t.nowFn.Store(fn)
	}
}

func (t *Tracer) now() time.Time {
	return t.nowFn.Load().(func() time.Time)()
}

// Start begins a span at the tracer's current time. parent may be nil (a
// root span). On a nil tracer it returns nil, a valid no-op span.
func (t *Tracer) Start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	return t.StartAt(name, parent, t.now())
}

// StartAt begins a span at an explicit instant (simulated-clock callers).
func (t *Tracer) StartAt(name string, parent *Span, at time.Time) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, id: t.nextID.Add(1), name: name, start: at}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// Emit records a span that is already over — the caller knows its start and
// duration, as the executor does when it reads its windows back from its
// stage — without a Span in between: the record takes the next ID and goes
// into the ring with args. A nil tracer drops it.
func (t *Tracer) Emit(r *SpanRecord, args ...SpanArg) {
	if t == nil {
		return
	}
	r.ID = t.nextID.Add(1)
	t.record(r, args)
}

// record stores r with a copy of args in the slot's own storage, so a ring
// that has wrapped once records without allocating. A writer that lost its
// slot to one a lap ahead drops its record: the ring keeps the newest.
func (t *Tracer) record(r *SpanRecord, args []SpanArg) {
	n := t.written.Add(1)
	slot := &t.ring[(n-1)%uint64(len(t.ring))]
	slot.mu.Lock()
	if n > slot.seq {
		kept := append(slot.rec.Args[:0], args...)
		slot.rec = *r
		slot.rec.Args = kept
		slot.seq = n
	}
	slot.mu.Unlock()
}

// Spans returns the recorded spans, oldest first. Nil tracer returns nil.
// A span whose slot a writer is filling at that moment may be missing.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	end := t.written.Load()
	first := end - min(end, uint64(len(t.ring)))
	out := make([]SpanRecord, 0, end-first)
	for n := first + 1; n <= end; n++ {
		slot := &t.ring[(n-1)%uint64(len(t.ring))]
		slot.mu.Lock()
		r, ok := slot.rec, slot.seq == n
		r.Args = append([]SpanArg(nil), r.Args...) // the slot's storage is reused
		slot.mu.Unlock()
		if !ok {
			continue
		}
		if r.lazy.format != "" {
			r.Detail = r.lazy.String()
		}
		out = append(out, r)
	}
	return out
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(min(t.written.Load(), uint64(len(t.ring))))
}
