package explain

import (
	"testing"
	"time"

	"aptrace/internal/event"
)

// BenchmarkDisabledEmission measures what recording costs when it is off: the
// nil pointer test in front of a flush and of an out-of-loop emitter. The
// contract is ≤2 ns/op: instrumented code must be free to record
// unconditionally.
func BenchmarkDisabledEmission(b *testing.B) {
	var r *Recorder
	var s Stage
	s.Add(KindEdgeAdded, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Consume(&s)
		r.MemoVerdict(true, "backward", 1, 0, 10, 3)
	}
}

// BenchmarkEnabledEmission is the recording path as the run loop pays for it:
// a record staged, and one Consume — one lock, one counter add, one slot
// write and one fold step per record — for every 16 of them. ns/op is per record.
func BenchmarkEnabledEmission(b *testing.B) {
	r := New(1<<12, nil)
	var s Stage
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := s.Add(KindEdgeAdded, int64(i))
		d.Event, d.Node, d.Peer, d.Hop, d.Finish = event.EventID(i), 1, 2, 3, 10
		if len(s.Recs) == 16 {
			r.Consume(&s)
			s.Reset()
		}
	}
}

// BenchmarkExplain measures assembling one justification from a populated
// ring.
func BenchmarkExplain(b *testing.B) {
	r := New(1<<12, nil)
	for i := 0; i < 1<<12; i++ {
		r.EdgeAdded(time.Time{}, event.EventID(i), event.ObjID(i%64), 2, 3, 0, 10, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Explain(event.ObjID(i % 64))
	}
}

// BenchmarkExplainAllNodes is the -explain all report on a full default
// ring: one justification per graph node. Each Explain walks the ring in
// place and rebuilds only the records about its node, so allocs/op counts the
// answers, not the ring.
func BenchmarkExplainAllNodes(b *testing.B) {
	const nodes = 512
	r := New(0, nil)
	for i := 0; i < DefaultCapacity; i++ {
		r.EdgeAdded(time.Time{}, event.EventID(i), event.ObjID(i%nodes), 2, 3, 0, 10, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := event.ObjID(0); n < nodes; n++ {
			if r.Explain(n).Empty() {
				b.Fatal("a node nobody decided about")
			}
		}
	}
}
