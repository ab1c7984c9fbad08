package core

import (
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/refiner"
	"aptrace/internal/store"
)

// forwardFixture builds a store for impact tracking:
//
//	e0 (alert, t=100): dropper writes /tmp/payload      (dropper -> payload)
//	t=200: runner reads /tmp/payload                    (payload -> runner)
//	t=300: runner starts worker                         (runner -> worker)
//	t=400: worker writes /data/out                      (worker -> out)
//	t=500: scp reads /data/out                          (out -> scp)
//	t=600: scp sends to 9.9.9.9                         (scp -> sock)
//	t=50:  earlier read of /tmp/payload (before e0: NOT impact)
//	noise: many later writes into /tmp/payload by others (in-edges: NOT impact)
func forwardFixture(t testing.TB) (*store.Store, event.Event) {
	t.Helper()
	s := store.New(nil)
	dropper := event.Process("h", "dropper", 1, 10)
	early := event.Process("h", "early", 2, 10)
	runner := event.Process("h", "runner", 3, 150)
	worker := event.Process("h", "worker", 4, 250)
	scp := event.Process("h", "scp", 5, 450)
	writer := event.Process("h", "writer", 6, 10)
	payload := event.File("h", "/tmp/payload")
	out := event.File("h", "/data/out")
	sock := event.Socket("", "10.0.0.1", 1, "9.9.9.9", 22)

	add := func(tm int64, sub, obj event.Object, a event.Action, d event.Direction) event.EventID {
		id, err := s.AddEvent(tm, sub, obj, a, d, 64)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	add(50, early, payload, event.ActRead, event.FlowIn)
	alertID := add(100, dropper, payload, event.ActWrite, event.FlowOut)
	add(200, runner, payload, event.ActRead, event.FlowIn)
	add(300, runner, worker, event.ActStart, event.FlowOut)
	add(400, worker, out, event.ActWrite, event.FlowOut)
	add(500, scp, out, event.ActRead, event.FlowIn)
	add(600, scp, sock, event.ActSend, event.FlowOut)
	for i := 0; i < 50; i++ {
		add(700+int64(i), writer, payload, event.ActWrite, event.FlowOut)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	alert, _ := s.EventByID(alertID)
	return s, alert
}

func forwardPlan(t testing.TB, extra string) *refiner.Plan {
	t.Helper()
	p, err := refiner.ParseAndCompile(`forward file f[path = "/tmp/payload"] -> *` + "\n" + extra)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Forward {
		t.Fatal("plan not forward")
	}
	return p
}

// naiveForwardClosure: event e belongs iff some member E (or the alert) has
// E.Dst() == e.Src() and e.Time > E.Time.
func naiveForwardClosure(s *store.Store, alert event.Event) map[event.EventID]bool {
	in := map[event.EventID]bool{alert.ID: true}
	bound := map[event.ObjID]int64{alert.Dst(): alert.Time}
	for changed := true; changed; {
		changed = false
		var all []event.Event
		s.Scan(0, 1<<62, func(e event.Event) bool { all = append(all, e); return true })
		for _, e := range all {
			b, ok := bound[e.Src()]
			if !ok || e.Time <= b || in[e.ID] {
				continue
			}
			in[e.ID] = true
			changed = true
			if prev, ok := bound[e.Dst()]; !ok || e.Time < prev {
				// The earliest impact time opens the widest forward range.
				if !ok || e.Time < prev {
					bound[e.Dst()] = e.Time
				}
			}
		}
	}
	return in
}

func TestForwardMatchesNaiveClosure(t *testing.T) {
	s, alert := forwardFixture(t)
	x, err := New(s, forwardPlan(t, ""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveForwardClosure(s, alert)
	got := map[event.EventID]bool{}
	for _, e := range res.Graph.Edges() {
		got[e.ID] = true
	}
	if len(got) != len(want) {
		t.Fatalf("forward run found %d edges, closure has %d", len(got), len(want))
	}
	for id := range want {
		if !got[id] {
			t.Errorf("edge %d missing", id)
		}
	}
	// Sanity: the full impact chain reaches the socket; the pre-alert
	// reader and the later writers are absent.
	sockID, _ := s.Lookup(event.Socket("", "10.0.0.1", 1, "9.9.9.9", 22))
	if _, ok := res.Graph.Node(sockID); !ok {
		t.Error("impact chain did not reach the exfil socket")
	}
	earlyID, _ := s.Lookup(event.Process("h", "early", 2, 10))
	if _, ok := res.Graph.Node(earlyID); ok {
		t.Error("pre-alert reader must not be impacted")
	}
	writerID, _ := s.Lookup(event.Process("h", "writer", 6, 10))
	if _, ok := res.Graph.Node(writerID); ok {
		t.Error("writers INTO the payload are not impact")
	}
}

func TestForwardHops(t *testing.T) {
	s, alert := forwardFixture(t)
	x, _ := New(s, forwardPlan(t, "where hop <= 2"), Options{})
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.MaxHop() > 2 {
		t.Fatalf("hop budget violated: %d", res.Graph.MaxHop())
	}
	workerID, _ := s.Lookup(event.Process("h", "worker", 4, 250))
	if _, ok := res.Graph.Node(workerID); !ok {
		t.Error("worker is 2 hops out and must be present")
	}
	outID, _ := s.Lookup(event.File("h", "/data/out"))
	if _, ok := res.Graph.Node(outID); ok {
		t.Error("/data/out is 3 hops out and must be excluded")
	}
}

func TestForwardWhereFilter(t *testing.T) {
	s, alert := forwardFixture(t)
	x, _ := New(s, forwardPlan(t, `where proc.exename != "worker"`), Options{})
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	workerID, _ := s.Lookup(event.Process("h", "worker", 4, 250))
	if _, ok := res.Graph.Node(workerID); ok {
		t.Error("worker must be excluded")
	}
	// Everything downstream of worker disappears with it.
	outID, _ := s.Lookup(event.File("h", "/data/out"))
	if _, ok := res.Graph.Node(outID); ok {
		t.Error("worker's output must be unreachable")
	}
}

func TestForwardChainStates(t *testing.T) {
	s, alert := forwardFixture(t)
	plan, err := refiner.ParseAndCompile(`
forward file f[path = "/tmp/payload"]
 -> proc r[exename = "runner"]
 -> proc w[exename = "worker"]
 -> *`)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := New(s, plan, Options{})
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	runnerID, _ := s.Lookup(event.Process("h", "runner", 3, 150))
	workerID, _ := s.Lookup(event.Process("h", "worker", 4, 250))
	if n, _ := res.Graph.Node(runnerID); n.State != 1 {
		t.Errorf("state(runner) = %d, want 1", n.State)
	}
	if n, _ := res.Graph.Node(workerID); n.State != 2 {
		t.Errorf("state(worker) = %d, want 2", n.State)
	}
}

func TestGenExeWindowsForward(t *testing.T) {
	e := event.Event{Time: 1000, Subject: 1, Object: 2, Dir: event.FlowOut}
	ws := appendExeWindowsForward(nil, ExecWindow{Obj: e.Dst(), Gen: e.ID}, e.Time+1, 16001, 4)
	if len(ws) != 4 {
		t.Fatalf("%d windows", len(ws))
	}
	if ws[0].Begin != 1001 {
		t.Fatalf("first window begins at %d, want te+1", ws[0].Begin)
	}
	if ws[len(ws)-1].Finish != 16001 {
		t.Fatalf("last window ends at %d, want 16001", ws[len(ws)-1].Finish)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Begin != ws[i-1].Finish {
			t.Fatal("windows not contiguous")
		}
	}
	if ws[0].Obj != e.Dst() {
		t.Fatal("forward windows must explore the flow destination")
	}
	// Geometric growth of the first windows.
	w0 := ws[0].Finish - ws[0].Begin
	w1 := ws[1].Finish - ws[1].Begin
	if w1 != 2*w0 {
		t.Fatalf("ratio: %d then %d", w0, w1)
	}
	if appendExeWindowsForward(nil, ExecWindow{Obj: e.Dst(), Gen: e.ID}, e.Time+1, 1000, 4) != nil {
		t.Fatal("empty forward span must yield nothing")
	}
}

func TestForwardHeapOrder(t *testing.T) {
	h := windowHeap{forward: true}
	h.push(&ExecWindow{Begin: 500, Finish: 600})
	h.push(&ExecWindow{Begin: 100, Finish: 200})
	h.push(&ExecWindow{Begin: 300, Finish: 400})
	want := []int64{100, 300, 500}
	for _, wb := range want {
		w, _ := h.pop()
		if w.Begin != wb {
			t.Fatalf("pop Begin=%d, want %d", w.Begin, wb)
		}
	}
}
