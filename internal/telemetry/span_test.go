package telemetry

import (
	"testing"
	"time"
)

func TestSpanParentLinkageAndTiming(t *testing.T) {
	tr := NewTracer(16)
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	root := tr.StartAt("window.query", nil, base)
	child := tr.StartAt("window.resplit", root, base.Add(time.Second))
	child.SetDetail("obj=7")
	child.EndAt(base.Add(3 * time.Second))
	root.EndAt(base.Add(5 * time.Second))

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Recorded in end order: child first.
	if spans[0].Name != "window.resplit" || spans[1].Name != "window.query" {
		t.Fatalf("unexpected order: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %d, want %d", spans[0].Parent, spans[1].ID)
	}
	if spans[1].Parent != 0 {
		t.Fatalf("root parent = %d, want 0", spans[1].Parent)
	}
	if spans[0].Duration != 2*time.Second || spans[1].Duration != 5*time.Second {
		t.Fatalf("durations = %v, %v", spans[0].Duration, spans[1].Duration)
	}
	if spans[0].Detail != "obj=7" {
		t.Fatalf("detail = %q", spans[0].Detail)
	}
}

// TestSpanLazyDetail: a detail given as format and integers reads back from
// Spans exactly as the eager Sprintf would have, and replaces a SetDetail.
func TestSpanLazyDetail(t *testing.T) {
	tr := NewTracer(4)
	at := time.Unix(0, 0)
	a := tr.StartAt("window.query", nil, at)
	a.SetDetail("overwritten")
	a.SetDetailf("obj=%d [%d,%d)", 7, -3, 1<<40)
	a.EndAt(at)
	b := tr.StartAt("run", nil, at)
	b.SetDetailf("event=%d", 42)
	b.EndAt(at)
	var none *Span
	none.SetDetailf("obj=%d", 1) // nil span: no-op

	spans := tr.Spans()
	if got, want := spans[0].Detail, "obj=7 [-3,1099511627776)"; got != want {
		t.Errorf("detail = %q, want %q", got, want)
	}
	if got, want := spans[1].Detail, "event=42"; got != want {
		t.Errorf("detail = %q, want %q", got, want)
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(4)
	base := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		sp := tr.StartAt("s", nil, base.Add(time.Duration(i)*time.Second))
		sp.EndAt(base.Add(time.Duration(i)*time.Second + time.Millisecond))
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	// Oldest-first: spans 6..9 survive.
	for i, sp := range spans {
		if want := base.Add(time.Duration(6+i) * time.Second); !sp.Start.Equal(want) {
			t.Fatalf("span %d start = %v, want %v", i, sp.Start, want)
		}
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", nil)
	if sp != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	// All nil-span operations must be no-ops.
	sp.SetDetail("d")
	sp.End()
	sp.EndAt(time.Now())
	if sp.ID() != 0 {
		t.Fatal("nil span ID must be 0")
	}
	if tr.Spans() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer must report no spans")
	}
	tr.SetNow(time.Now) // no-op, must not panic
}

func TestTracerSetNow(t *testing.T) {
	tr := NewTracer(4)
	fixed := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	tr.SetNow(func() time.Time { return fixed })
	sp := tr.Start("clocked", nil)
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 || !spans[0].Start.Equal(fixed) || spans[0].Duration != 0 {
		t.Fatalf("span under fixed clock = %+v", spans)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				sp := tr.Start("w", nil)
				sp.End()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if tr.Len() != 64 {
		t.Fatalf("ring should be full: %d", tr.Len())
	}
}
