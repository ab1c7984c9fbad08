package store

import (
	"math/rand"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
)

// buildSmall creates a tiny sealed store with a known event pattern:
//
//	t=100: bash(1) writes /tmp/a        (flow bash -> a)
//	t=200: cat(2) reads /tmp/a          (flow a -> cat)
//	t=300: cat(2) writes /tmp/b         (flow cat -> b)
//	t=400: scp(3) reads /tmp/b          (flow b -> scp)
//	t=500: scp(3) sends to 8.8.8.8:443  (flow scp -> socket)
func buildSmall(t testing.TB, clk simclock.Clock) *Store {
	t.Helper()
	s := New(clk)
	bash := event.Process("h1", "bash", 1, 50)
	cat := event.Process("h1", "cat", 2, 150)
	scp := event.Process("h1", "scp", 3, 350)
	fa := event.File("h1", "/tmp/a")
	fb := event.File("h1", "/tmp/b")
	sock := event.Socket("h1", "10.0.0.1", 4000, "8.8.8.8", 443)

	mustAdd := func(tm int64, sub, obj event.Object, a event.Action, d event.Direction, amt int64) {
		if _, err := s.AddEvent(tm, sub, obj, a, d, amt); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(100, bash, fa, event.ActWrite, event.FlowOut, 10)
	mustAdd(200, cat, fa, event.ActRead, event.FlowIn, 10)
	mustAdd(300, cat, fb, event.ActWrite, event.FlowOut, 20)
	mustAdd(400, scp, fb, event.ActRead, event.FlowIn, 20)
	mustAdd(500, scp, sock, event.ActSend, event.FlowOut, 20)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLifecycleErrors(t *testing.T) {
	s := New(nil)
	if _, err := s.AppendBackward(nil, 0, 0, 100); err != ErrNotSealed {
		t.Errorf("query before seal: err = %v, want ErrNotSealed", err)
	}
	if err := s.Scan(0, 1, func(event.Event) bool { return true }); err != ErrNotSealed {
		t.Errorf("scan before seal: err = %v", err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != ErrSealed {
		t.Errorf("double seal: err = %v, want ErrSealed", err)
	}
	if _, err := s.AddEvent(1, event.Process("h", "x", 1, 1), event.File("h", "/f"), event.ActWrite, event.FlowOut, 0); err != ErrSealed {
		t.Errorf("add after seal: err = %v, want ErrSealed", err)
	}
}

func TestSubjectMustBeProcess(t *testing.T) {
	s := New(nil)
	_, err := s.AddEvent(1, event.File("h", "/f"), event.File("h", "/g"), event.ActWrite, event.FlowOut, 0)
	if err == nil {
		t.Fatal("file subject must be rejected")
	}
}

func TestInternDedup(t *testing.T) {
	s := New(nil)
	a := s.Intern(event.Process("h1", "bash", 1, 50))
	b := s.Intern(event.Process("h1", "bash", 1, 50))
	c := s.Intern(event.Process("h1", "bash", 2, 50))
	if a != b {
		t.Error("identical objects must intern to the same ID")
	}
	if a == c {
		t.Error("distinct objects must intern to distinct IDs")
	}
	if got := s.Object(a).Exe; got != "bash" {
		t.Errorf("Object(a).Exe = %q", got)
	}
	if id, ok := s.Lookup(event.Process("h1", "bash", 1, 50)); !ok || id != a {
		t.Errorf("Lookup = %d,%v want %d,true", id, ok, a)
	}
	if _, ok := s.Lookup(event.Process("h1", "zsh", 1, 50)); ok {
		t.Error("Lookup of unseen object must fail")
	}
}

func TestQueryBackward(t *testing.T) {
	s := buildSmall(t, nil)
	fb, _ := s.Lookup(event.File("h1", "/tmp/b"))
	cat, _ := s.Lookup(event.Process("h1", "cat", 2, 150))

	// Backward deps of "scp reads /tmp/b" (src = /tmp/b):
	// events with dst == /tmp/b before t=400 -> the cat write at t=300.
	got, err := s.AppendBackward(nil, fb, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Time != 300 || got[0].Src() != cat {
		t.Fatalf("AppendBackward(/tmp/b) = %+v", got)
	}

	// Half-open window: [300, 400) includes t=300, [301, 400) does not.
	if got, _ := s.AppendBackward(nil, fb, 300, 400); len(got) != 1 {
		t.Errorf("[300,400) should include the t=300 event")
	}
	if got, _ := s.AppendBackward(nil, fb, 301, 400); len(got) != 0 {
		t.Errorf("[301,400) should be empty, got %d", len(got))
	}
	if got, _ := s.AppendBackward(nil, fb, 0, 300); len(got) != 0 {
		t.Errorf("[0,300) should exclude the t=300 event, got %d", len(got))
	}
}

func TestQueryForward(t *testing.T) {
	s := buildSmall(t, nil)
	cat, _ := s.Lookup(event.Process("h1", "cat", 2, 150))
	got, err := s.AppendForward(nil, cat, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// cat is the flow source only of its write to /tmp/b.
	if len(got) != 1 || got[0].Action != event.ActWrite {
		t.Fatalf("AppendForward(cat) = %+v", got)
	}
}

func TestQueryResultsAscendingAndIDsStable(t *testing.T) {
	s := New(nil)
	p := event.Process("h", "w", 1, 0)
	f := event.File("h", "/f")
	// Insert out of time order.
	id3, _ := s.AddEvent(300, p, f, event.ActWrite, event.FlowOut, 0)
	id1, _ := s.AddEvent(100, p, f, event.ActWrite, event.FlowOut, 0)
	id2, _ := s.AddEvent(200, p, f, event.ActWrite, event.FlowOut, 0)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	fo, _ := s.Lookup(f)
	got, _ := s.AppendBackward(nil, fo, 0, 1000)
	if len(got) != 3 {
		t.Fatalf("got %d events", len(got))
	}
	if got[0].ID != id1 || got[1].ID != id2 || got[2].ID != id3 {
		t.Fatalf("events not in time order with stable IDs: %+v", got)
	}
	for _, want := range []event.EventID{id1, id2, id3} {
		if e, ok := s.EventByID(want); !ok || e.ID != want {
			t.Errorf("EventByID(%d) = %+v, %v", want, e, ok)
		}
	}
	if _, ok := s.EventByID(999); ok {
		t.Error("EventByID(999) must fail")
	}
}

func TestQueryChargesCost(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	s := buildSmall(t, clk)
	fb, _ := s.Lookup(event.File("h1", "/tmp/b"))
	t0 := clk.Now()
	if _, err := s.AppendBackward(nil, fb, 0, 400); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(t0)
	want := s.CostModel().QueryCost(1, int((400-0)/s.BucketSeconds())+1)
	if elapsed != want {
		t.Fatalf("charged %v, want %v", elapsed, want)
	}
	st := s.Stats()
	if st.Queries != 1 || st.RowsExamined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCountBackwardFree(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	s := buildSmall(t, clk)
	fa, _ := s.Lookup(event.File("h1", "/tmp/a"))
	t0 := clk.Now()
	n, err := s.CountBackward(fa, 0, 1000)
	if err != nil || n != 1 {
		t.Fatalf("CountBackward = %d, %v", n, err)
	}
	if clk.Now() != t0 {
		t.Error("CountBackward must not charge the clock")
	}
}

func TestScan(t *testing.T) {
	s := buildSmall(t, nil)
	var times []int64
	if err := s.Scan(150, 450, func(e event.Event) bool {
		times = append(times, e.Time)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 || times[0] != 200 || times[2] != 400 {
		t.Fatalf("Scan(150,450) times = %v", times)
	}
	// Early stop.
	n := 0
	s.Scan(0, 1000, func(event.Event) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestTimeRangeAndDegrees(t *testing.T) {
	s := buildSmall(t, nil)
	min, max, ok := s.TimeRange()
	if !ok || min != 100 || max != 500 {
		t.Fatalf("TimeRange = %d,%d,%v", min, max, ok)
	}
	if s.Duration() != 400*time.Second {
		t.Fatalf("Duration = %v", s.Duration())
	}
	fa, _ := s.Lookup(event.File("h1", "/tmp/a"))
	if s.InDegree(fa) != 1 || s.OutDegree(fa) != 1 {
		t.Fatalf("degrees of /tmp/a: in=%d out=%d", s.InDegree(fa), s.OutDegree(fa))
	}
	empty := New(nil)
	empty.Seal()
	if _, _, ok := empty.TimeRange(); ok {
		t.Error("empty store must report no time range")
	}
	if empty.Duration() != 0 {
		t.Error("empty store duration must be 0")
	}
}

func TestRandomEvents(t *testing.T) {
	s := buildSmall(t, nil)
	rng := rand.New(rand.NewSource(1))
	got := s.RandomEvents(3, rng)
	if len(got) != 3 {
		t.Fatalf("sampled %d", len(got))
	}
	seen := map[event.EventID]bool{}
	for _, e := range got {
		if seen[e.ID] {
			t.Fatal("sampled with replacement")
		}
		seen[e.ID] = true
	}
	if got := s.RandomEvents(100, rng); len(got) != s.NumEvents() {
		t.Fatalf("oversample returned %d", len(got))
	}
}

// Property: AppendBackward must agree with a naive scan filter on random data.
func TestQueryBackwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New(nil)
	procs := make([]event.Object, 5)
	for i := range procs {
		procs[i] = event.Process("h", "p", int32(i), 0)
	}
	files := make([]event.Object, 8)
	for i := range files {
		files[i] = event.File("h", "/f"+string(rune('a'+i)))
	}
	type raw struct {
		t        int64
		sub, obj event.Object
		dir      event.Direction
	}
	var all []raw
	for i := 0; i < 500; i++ {
		r := raw{
			t:   rng.Int63n(10_000),
			sub: procs[rng.Intn(len(procs))],
			obj: files[rng.Intn(len(files))],
			dir: event.Direction(rng.Intn(2)),
		}
		act := event.ActWrite
		if r.dir == event.FlowIn {
			act = event.ActRead
		}
		if _, err := s.AddEvent(r.t, r.sub, r.obj, act, r.dir, 0); err != nil {
			t.Fatal(err)
		}
		all = append(all, r)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		target := files[rng.Intn(len(files))]
		if rng.Intn(2) == 0 {
			target = procs[rng.Intn(len(procs))]
		}
		id, ok := s.Lookup(target)
		if !ok {
			continue
		}
		from := rng.Int63n(10_000)
		to := from + rng.Int63n(5_000)
		got, err := s.AppendBackward(nil, id, from, to)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, r := range all {
			if r.t < from || r.t >= to {
				continue
			}
			dst := r.obj
			if r.dir == event.FlowIn {
				dst = r.sub
			}
			if dst.Key() == target.Key() {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: AppendBackward returned %d, naive %d", trial, len(got), want)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Time > got[i].Time {
				t.Fatal("results not time-ordered")
			}
		}
		for _, e := range got {
			if e.Dst() != id {
				t.Fatalf("result with wrong dst: %+v", e)
			}
		}
	}
}
