package store

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
)

func TestViewRequiresSealed(t *testing.T) {
	s := New(nil)
	if _, err := s.View(nil); err != ErrNotSealed {
		t.Fatalf("View on unsealed store: err = %v, want ErrNotSealed", err)
	}
}

func TestViewSharesDataIsolatesAccounting(t *testing.T) {
	parentClk := simclock.NewSimulated(time.Time{})
	s := buildSmall(t, parentClk)
	fb, _ := s.Lookup(event.File("h1", "/tmp/b"))

	viewClk := simclock.NewSimulated(time.Time{})
	v, err := s.View(viewClk)
	if err != nil {
		t.Fatal(err)
	}
	view0 := viewClk.Now()

	// The view sees the same data the parent does.
	want, err := s.AppendBackward(nil, fb, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.AppendBackward(nil, fb, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("view query = %+v, parent query = %+v", got, want)
	}
	if v.NumEvents() != s.NumEvents() || v.NumObjects() != s.NumObjects() {
		t.Fatal("view must share the parent's event log and object table")
	}
	if id, ok := v.Lookup(event.File("h1", "/tmp/b")); !ok || id != fb {
		t.Fatal("view must share the parent's object interning")
	}

	// The view's query charged only the view's clock...
	wantCost := s.cost.QueryCost(1, int(400/s.bucketSeconds)+1)
	if elapsed := viewClk.Now().Sub(view0); elapsed != wantCost {
		t.Fatalf("view clock advanced %v, want %v", elapsed, wantCost)
	}
	// ...and only the view's stats: the parent counted exactly its own query.
	if ps := s.Stats(); ps.Queries != 1 {
		t.Fatalf("parent stats counted %d queries, want 1 (its own)", ps.Queries)
	}
	if vs := v.Stats(); vs.Queries != 1 || vs.RowsExamined != 1 {
		t.Fatalf("view stats = %+v, want 1 query / 1 row", vs)
	}
	if vs := v.Stats(); vs.Events != s.NumEvents() || vs.Objects != s.NumObjects() {
		t.Fatalf("view stats sizes = %+v", vs)
	}
}

func TestViewNilClockInheritsParent(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	s := buildSmall(t, clk)
	v, err := s.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := s.Lookup(event.File("h1", "/tmp/a"))
	t0 := clk.Now()
	if _, err := v.AppendBackward(nil, fa, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if clk.Now() == t0 {
		t.Fatal("nil-clock view must charge the parent's clock")
	}
}

func TestViewIsReadOnly(t *testing.T) {
	s := buildSmall(t, nil)
	v, err := s.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.AddEvent(1, event.Process("h", "x", 9, 1), event.File("h", "/x"), event.ActWrite, event.FlowOut, 0); err != ErrSealed {
		t.Errorf("AddEvent on view: err = %v, want ErrSealed", err)
	}
	if err := v.Seal(); err != ErrSealed {
		t.Errorf("Seal on view: err = %v, want ErrSealed", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intern on a view must panic")
		}
	}()
	v.Intern(event.Process("h", "new", 99, 1))
}

// TestViewsConcurrent exercises the fleet pattern under the race detector:
// many goroutines, each with its own view and simulated clock, querying the
// same shared sealed store. Every run must observe identical results and
// identical isolated cost accounting.
func TestViewsConcurrent(t *testing.T) {
	s := buildSmall(t, simclock.NewSimulated(time.Time{}))
	fb, _ := s.Lookup(event.File("h1", "/tmp/b"))

	const runs = 16
	type runResult struct {
		rows    int
		elapsed time.Duration
		stats   Stats
	}
	results := make([]runResult, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clk := simclock.NewSimulated(time.Time{})
			v, err := s.View(clk)
			if err != nil {
				t.Error(err)
				return
			}
			t0 := clk.Now()
			evs, err := v.AppendBackward(nil, fb, 0, 400)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := v.CountForward(fb, 0, 1000); err != nil {
				t.Error(err)
				return
			}
			results[i] = runResult{
				rows:    len(evs),
				elapsed: clk.Now().Sub(t0),
				stats:   v.Stats(),
			}
		}(i)
	}
	wg.Wait()

	for i := 1; i < runs; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, results[i], results[0])
		}
	}
	if results[0].rows != 1 || results[0].stats.Queries != 1 {
		t.Fatalf("unexpected per-run result: %+v", results[0])
	}
	// The parent's stats are untouched by view traffic.
	if ps := s.Stats(); ps.Queries != 0 {
		t.Fatalf("parent absorbed %d view queries; accounting not isolated", ps.Queries)
	}
}
