package explain

import (
	"testing"
	"time"

	"aptrace/internal/event"
)

// BenchmarkDisabledEmission measures the cost of an emission call site when
// recording is off — the nil pointer test the whole package is designed
// around. The contract is ≤2 ns/op: instrumented code must be free to record
// unconditionally.
func BenchmarkDisabledEmission(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EdgeAdded(time.Time{}, event.EventID(i), 1, 2, 3, 0, 10, 0)
	}
}

// BenchmarkEnabledEmission is the recording path: one mutex round-trip plus a
// ring slot write.
func BenchmarkEnabledEmission(b *testing.B) {
	r := New(1<<12, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.EdgeAdded(time.Time{}, event.EventID(i), 1, 2, 3, 0, 10, 0)
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
