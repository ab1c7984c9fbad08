package explain

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
	"aptrace/internal/simclock"
	"aptrace/internal/telemetry"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// Every emission method must be callable on a nil receiver.
	r.RunStart(time.Time{}, event.Event{ID: 1}, 2, 0, 10)
	r.EdgeAdded(time.Time{}, 1, 2, 3, 1, 0, 10, 0)
	r.EdgeDedup(time.Time{}, 1, 2)
	r.EdgeDropped(time.Time{}, 1, 2, 3)
	r.EdgeHostFiltered(time.Time{}, 1, 2, 3, "ws9")
	r.EdgeWhereRejected(time.Time{}, 1, 2, 3, "clause", bdl.Pos{})
	r.EdgeHopBudget(time.Time{}, 1, 2, 3, 5, 4)
	r.WindowEnqueued(time.Time{}, 2, 0, 10, 1, -1, 0)
	r.WindowEmpty(time.Time{}, 2, 0, 10)
	r.WindowResplit(time.Time{}, 2, 0, 10, 99)
	r.WindowQueried(time.Time{}, 2, 0, 10, 3)
	r.WindowAbandoned(time.Time{}, 2, 0, 10, "stopped")
	r.PlanUpdate("resume", "where changed")
	r.Pause()
	r.Resume()
	r.Finalize(2)
	r.Attach(simclock.NewSimulated(time.Time{}), nil)
	if got := r.Records(); got != nil {
		t.Fatalf("nil recorder Records() = %v, want nil", got)
	}
	if e, d := r.Stats(); e != 0 || d != 0 {
		t.Fatalf("nil recorder Stats() = %d,%d", e, d)
	}
	if ex := r.Explain(2); !ex.Empty() {
		t.Fatalf("nil recorder Explain() not empty: %+v", ex)
	}
	if fr := r.PruneFrontier(); len(fr) != 0 {
		t.Fatalf("nil recorder PruneFrontier() = %v", fr)
	}
}

func TestRingOverwriteAndStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := New(4, reg)
	for i := 0; i < 10; i++ {
		r.EdgeDedup(time.Time{}, event.EventID(i), event.ObjID(i))
	}
	emitted, dropped := r.Stats()
	if emitted != 10 || dropped != 6 {
		t.Fatalf("Stats() = %d,%d, want 10,6", emitted, dropped)
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d records, want 4", len(recs))
	}
	// Oldest-first order with the oldest retained record first.
	for i, rec := range recs {
		if want := uint64(6 + i); rec.Seq != want {
			t.Errorf("recs[%d].Seq = %d, want %d", i, rec.Seq, want)
		}
	}
	if got := reg.Counter(telemetry.MetricExplainRecords).Value(); got != 10 {
		t.Errorf("%s = %d, want 10", telemetry.MetricExplainRecords, got)
	}
	if got := reg.Counter(telemetry.MetricExplainDropped).Value(); got != 6 {
		t.Errorf("%s = %d, want 6", telemetry.MetricExplainDropped, got)
	}
}

func TestClockStamping(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	r := New(0, nil)
	r.Attach(clk, nil)
	// A run-loop record carries the caller's stamp, whatever the clock says;
	// a record from outside the loop reads the bound clock.
	stamp := clk.Now()
	clk.Advance(5 * time.Second)
	r.EdgeDedup(stamp, 1, 1)
	r.Pause()
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if !recs[0].At.Equal(stamp) {
		t.Fatalf("stamped record at %s, want the caller's %s", recs[0].At, stamp)
	}
	if d := recs[1].At.Sub(recs[0].At); d != 5*time.Second {
		t.Fatalf("timestamp delta = %s, want 5s", d)
	}
}

func TestExplainClassification(t *testing.T) {
	r := New(0, nil)
	alert := event.Event{ID: 100}
	r.RunStart(time.Time{}, alert, 1, 0, 1000)
	r.EdgeAdded(time.Time{}, 101, 2, 1, 1, 0, 500, 1)
	r.WindowEnqueued(time.Time{}, 2, 0, 500, 3, -1, 1)
	r.WindowQueried(time.Time{}, 2, 0, 500, 3)
	r.EdgeWhereRejected(time.Time{}, 102, 3, 2, `file.path != "*.dll"`, bdl.Pos{Line: 2, Col: 7})
	r.EdgeHopBudget(time.Time{}, 103, 4, 2, 7, 6)
	r.WindowAbandoned(time.Time{}, 5, 0, 250, "time budget exceeded")

	start := r.Explain(1)
	if !start.Included || !start.Start || start.Inclusion == nil {
		t.Fatalf("start explanation wrong: %+v", start)
	}
	if !strings.Contains(start.Justification(labelID), "starting point") {
		t.Errorf("start justification: %q", start.Justification(labelID))
	}

	inc := r.Explain(2)
	if !inc.Included || inc.Start || inc.Inclusion == nil || inc.Inclusion.Event != 101 {
		t.Fatalf("included explanation wrong: %+v", inc)
	}
	j := inc.Justification(labelID)
	if !strings.Contains(j, "included via event #101") || !strings.Contains(j, "hop 1") {
		t.Errorf("included justification: %q", j)
	}
	if !strings.Contains(j, "boosted by a prioritize rule") {
		t.Errorf("boost missing from justification: %q", j)
	}
	if len(inc.Scheduling) != 2 {
		t.Errorf("scheduling records = %d, want 2", len(inc.Scheduling))
	}

	rej := r.Explain(3)
	if rej.Included || len(rej.Exclusions) != 1 {
		t.Fatalf("rejected explanation wrong: %+v", rej)
	}
	j = rej.Justification(labelID)
	if !strings.Contains(j, `where clause`) || !strings.Contains(j, "*.dll") || !strings.Contains(j, "2:7") {
		t.Errorf("where justification: %q", j)
	}

	hop := r.Explain(4)
	if !strings.Contains(hop.Justification(labelID), "hop budget 6") {
		t.Errorf("hop justification: %q", hop.Justification(labelID))
	}

	aband := r.Explain(5)
	if !strings.Contains(aband.Justification(labelID), "never ran: time budget exceeded") {
		t.Errorf("abandoned justification: %q", aband.Justification(labelID))
	}

	nothing := r.Explain(99)
	if !nothing.Empty() || !strings.Contains(nothing.Justification(labelID), "never reached") {
		t.Errorf("unknown-object justification: %q", nothing.Justification(labelID))
	}
}

func labelID(id event.ObjID) string { return "obj" + string(rune('0'+id%10)) }

func TestPruneFrontier(t *testing.T) {
	r := New(0, nil)
	r.RunStart(time.Time{}, event.Event{ID: 1}, 1, 0, 1000)
	// Object 3: excluded twice — only the first exclusion is reported.
	r.EdgeWhereRejected(time.Time{}, 10, 3, 1, "clause-a", bdl.Pos{Line: 1, Col: 1})
	r.EdgeHopBudget(time.Time{}, 11, 3, 1, 9, 8)
	// Object 2: excluded, then later admitted — omitted from the frontier.
	r.EdgeHostFiltered(time.Time{}, 12, 2, 1, "ws9")
	r.EdgeAdded(time.Time{}, 13, 2, 1, 1, 0, 500, 0)
	// Object 5: excluded once.
	r.EdgeHostFiltered(time.Time{}, 14, 5, 2, "ws9")

	fr := r.PruneFrontier()
	if len(fr) != 2 {
		t.Fatalf("frontier = %+v, want 2 entries", fr)
	}
	if fr[0].Node != 3 || fr[1].Node != 5 {
		t.Fatalf("frontier order = %d,%d, want 3,5", fr[0].Node, fr[1].Node)
	}
	if fr[0].Kind != KindEdgeWhereRejected || !strings.Contains(fr[0].Reason, "clause-a") {
		t.Errorf("frontier[0] = %+v", fr[0])
	}
	if fr[1].Peer != 2 {
		t.Errorf("frontier[1].Peer = %d, want 2", fr[1].Peer)
	}
}

func TestHandlerJSONDump(t *testing.T) {
	r := New(0, nil)
	r.EdgeDedup(time.Time{}, 1, 2)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/explain", nil))
	var out struct {
		Emitted uint64            `json:"emitted"`
		Dropped uint64            `json:"dropped"`
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if out.Emitted != 1 || out.Dropped != 0 || len(out.Records) != 1 {
		t.Fatalf("dump = %+v", out)
	}
	if !strings.Contains(string(out.Records[0]), `"kind": "edge-dedup"`) {
		t.Errorf("kind not marshaled by name: %s", out.Records[0])
	}

	// A nil recorder still serves a valid, empty dump.
	var nilRec *Recorder
	rec2 := httptest.NewRecorder()
	nilRec.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/debug/explain", nil))
	if !strings.Contains(rec2.Body.String(), `"records": []`) {
		t.Errorf("nil dump: %s", rec2.Body.String())
	}
}

func TestCountByKind(t *testing.T) {
	r := New(0, nil)
	r.EdgeDedup(time.Time{}, 1, 1)
	r.EdgeDedup(time.Time{}, 2, 1)
	r.Pause()
	got := r.CountByKind()
	if got["edge-dedup"] != 2 || got["pause"] != 1 {
		t.Fatalf("CountByKind = %v", got)
	}
}

// preallocRing is the recorder's storage as it was before the ring grew on
// demand: the whole capacity allocated up front, append until full, then
// overwrite at Seq % capacity. It is the oracle for TestRingGrowsOnDemand.
type preallocRing struct {
	ring    []Record
	seq     uint64
	dropped uint64
}

func (p *preallocRing) add(rec Record) {
	p.seq++
	if len(p.ring) < cap(p.ring) {
		p.ring = append(p.ring, rec)
		return
	}
	p.ring[int(rec.Seq)%cap(p.ring)] = rec
	p.dropped++
}

func (p *preallocRing) records() []Record {
	if p.seq <= uint64(cap(p.ring)) {
		return append([]Record(nil), p.ring...)
	}
	head := int(p.seq) % cap(p.ring)
	return append(append([]Record(nil), p.ring[head:]...), p.ring[:head]...)
}

// TestRingGrowsOnDemand pins the on-demand ring to the preallocated one,
// record for record, below, at and beyond capacity — and checks that it does
// not pay for capacity it never used.
func TestRingGrowsOnDemand(t *testing.T) {
	for _, capacity := range []int{8, 64} { // 64 doubles to 4 records, then takes the rest in one step
		testRingGrowsOnDemand(t, capacity)
	}
	r := New(0, nil)
	r.EdgeDedup(time.Time{}, 1, 1)
	if got := r.ring.Cap(); got >= DefaultCapacity/2 {
		t.Errorf("one record holds storage for %d; the ring must grow with use", got)
	}
}

func testRingGrowsOnDemand(t *testing.T, capacity int) {
	emit := func(r *Recorder, i int) {
		id, obj := event.EventID(i), event.ObjID(i%5)
		switch i % 4 {
		case 0:
			r.EdgeAdded(time.Time{}, id, obj, obj+1, i%3, int64(i), int64(i+10), i%2)
		case 1:
			r.EdgeDedup(time.Time{}, id, obj)
		case 2:
			r.WindowEnqueued(time.Time{}, obj, int64(i), int64(i+7), i, -1, 0)
		default:
			r.EdgeHopBudget(time.Time{}, id, obj, obj+1, 4, 3)
		}
	}
	for _, n := range []int{0, 1, capacity - 1, capacity, capacity + 1, 3*capacity + 2} {
		reg := telemetry.NewRegistry()
		r := New(capacity, reg)
		all := New(n+1, nil) // never wraps: the emitted sequence itself
		for i := 0; i < n; i++ {
			emit(r, i)
			emit(all, i)
		}
		want := preallocRing{ring: make([]Record, 0, capacity)}
		for _, rec := range all.Records() {
			want.add(rec)
		}
		if got := r.Records(); !reflect.DeepEqual(got, want.records()) {
			t.Errorf("capacity %d, n=%d: Records() = %+v\nwant %+v", capacity, n, got, want.records())
		}
		emitted, dropped := r.Stats()
		if emitted != want.seq || dropped != want.dropped {
			t.Errorf("capacity %d, n=%d: Stats() = %d,%d, want %d,%d", capacity, n, emitted, dropped, want.seq, want.dropped)
		}
		if got := reg.Counter(telemetry.MetricExplainDropped).Value(); got != int64(want.dropped) {
			t.Errorf("capacity %d, n=%d: %s = %d, want %d", capacity, n, telemetry.MetricExplainDropped, got, want.dropped)
		}
		if node := event.ObjID(1); !reflect.DeepEqual(r.Explain(node), explainFrom(want.records(), node)) {
			t.Errorf("capacity %d, n=%d: Explain(%d) differs from the preallocated ring's", capacity, n, node)
		}
	}
}
