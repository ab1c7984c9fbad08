package explain

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// record plays a fixed two-lane session — queries, updates, a re-split, an
// abandon, a pause, and one stall — so trace tests exercise every phase.
func record(p *session) {
	a := p.newLane("aptrace run", 0)
	a.RunStart(at(0), 42)
	a.Enqueued(at(0), 3, 0, 100, 12)
	a.ObserveQueryCost(120, 3, 200*time.Millisecond)
	a.Query(at(100*time.Millisecond), at(300*time.Millisecond), 3, 0, 100, 12)
	a.Update(at(300 * time.Millisecond))
	a.Resplit(at(400*time.Millisecond), 5, 0, 1000, 900)
	a.Pause(at(time.Second))
	a.Resume(at(2 * time.Second))
	a.Abandoned(at(3*time.Second), 5, 0, 500, "time budget exceeded")
	a.RunEnd(at(3*time.Second), "time budget exceeded")

	b := p.newLane("baseline run", 0)
	b.RunStart(at(0), 43)
	b.Update(at(10 * time.Second)) // stall on the 1 s-target test session
	b.RunEnd(at(10*time.Second), "completed")
}

func writeTrace(t *testing.T, p *session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, p.lanes); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	return buf.Bytes()
}

func TestTraceSchema(t *testing.T) {
	p := &session{}
	record(p)
	raw := writeTrace(t, p)

	if err := Validate(raw); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	// Every event carries the required keys; ts is monotonic per tid.
	lastTs := map[int64]float64{}
	names := map[string]int{}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"ph", "ts", "pid", "tid", "name"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		name, _ := ev["name"].(string)
		names[name]++
		if ph, _ := ev["ph"].(string); ph == "M" {
			continue
		}
		tid := int64(ev["tid"].(float64))
		ts := ev["ts"].(float64)
		if prev, seen := lastTs[tid]; seen && ts < prev {
			t.Fatalf("event %d: ts regression on lane %d (%v < %v)", i, tid, ts, prev)
		}
		lastTs[tid] = ts
	}
	for _, want := range []string{
		"process_name", "thread_name", "run", "window.enqueue", "window.query",
		"window.resplit", "graph.update", "window.abandon", "session.pause", "slo.stall",
	} {
		if names[want] == 0 {
			t.Errorf("trace has no %q event", want)
		}
	}

	// The stall span covers the whole gap even though its start (the
	// anchor) precedes already-emitted events — the per-lane sort keeps ts
	// monotonic, verified above; here check its duration survived.
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "slo.stall" {
			if dur := ev["dur"].(float64); dur != float64((10 * time.Second).Microseconds()) {
				t.Errorf("stall dur = %v µs, want 10 s", dur)
			}
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	mk := func() []byte {
		p := &session{}
		record(p)
		return writeTrace(t, p)
	}
	if a, b := mk(), mk(); !bytes.Equal(a, b) {
		t.Fatal("identical recordings exported different bytes")
	}
}

func TestTraceEmptyProfilerValidates(t *testing.T) {
	p := &session{}
	if err := Validate(writeTrace(t, p)); err != nil {
		t.Fatalf("empty session trace invalid: %v", err)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents":`,
		"no traceEvents":  `{"events":[]}`,
		"missing key":     `{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":1}]}`,
		"ts regression":   `{"traceEvents":[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"b","ph":"i","ts":4,"pid":1,"tid":1}]}`,
		"non-numeric tid": `{"traceEvents":[{"name":"a","ph":"i","ts":0,"pid":1,"tid":"x"}]}`,
	}
	for name, raw := range cases {
		if err := Validate([]byte(raw)); err == nil {
			t.Errorf("%s: Validate accepted %s", name, raw)
		}
	}
	// Metadata events are exempt from the monotonicity rule.
	ok := `{"traceEvents":[{"name":"a","ph":"i","ts":5,"pid":1,"tid":1},{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1}]}`
	if err := Validate([]byte(ok)); err != nil {
		t.Errorf("metadata event tripped monotonicity: %v", err)
	}
}

func TestHandlerServesTrace(t *testing.T) {
	p := &session{}
	record(p)
	rr := httptest.NewRecorder()
	TraceHandler(func() []*Recorder { return p.lanes }).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("Content-Type = %q", ct)
	}
	if err := Validate(rr.Body.Bytes()); err != nil {
		t.Fatalf("served trace invalid: %v", err)
	}
}
