package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aptrace/internal/event"
)

// buildTied builds an unsealed store with n events over a deliberately tiny
// time range, so equal timestamps are common and tie-breaking is exercised.
func buildTied(t testing.TB, n int, seed, timeRange int64, opts ...Option) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := New(nil, opts...)
	procs := make([]event.Object, 10)
	for i := range procs {
		procs[i] = event.Process("host", "proc", int32(i), int64(i))
	}
	for i := 0; i < n; i++ {
		var obj event.Object
		switch rng.Intn(3) {
		case 0:
			obj = procs[rng.Intn(len(procs))]
		case 1:
			obj = event.File("host", "/data/f"+string(rune('0'+rng.Intn(10))))
		case 2:
			obj = event.Socket("host", "10.0.0.1", uint16(rng.Intn(4)+1000), "9.9.9.9", 443)
		}
		sub := procs[rng.Intn(len(procs))]
		act := []event.Action{event.ActRead, event.ActWrite, event.ActSend, event.ActStart}[rng.Intn(4)]
		if _, err := s.AddEvent(rng.Int63n(timeRange), sub, obj, act, act.DefaultDirection(), rng.Int63n(1<<20)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// expectSameSealed asserts two sealed stores hold bit-identical parts (logs,
// arrival columns and acceleration indexes), directory and ID index.
func expectSameSealed(t *testing.T, want, got *Store) {
	t.Helper()
	if len(want.parts) != len(got.parts) {
		t.Fatalf("part counts differ: %d vs %d", len(want.parts), len(got.parts))
	}
	for pi, wp := range want.parts {
		gp := got.parts[pi]
		if !reflect.DeepEqual(wp.events, gp.events) {
			for i := range wp.events {
				if wp.events[i] != gp.events[i] {
					t.Fatalf("part %d: event log diverges at position %d: want %+v, got %+v",
						pi, i, wp.events[i], gp.events[i])
				}
			}
			t.Fatalf("part %d: event logs differ", pi)
		}
		if !reflect.DeepEqual(wp.seq, gp.seq) {
			t.Errorf("part %d: arrival columns differ", pi)
		}
		expectSameLists(t, fmt.Sprintf("part %d: byDst", pi), wp.byDst, gp.byDst)
		expectSameLists(t, fmt.Sprintf("part %d: bySrc", pi), wp.bySrc, gp.bySrc)
	}
	if !reflect.DeepEqual(want.dir, got.dir) {
		t.Error("time-order directories differ")
	}
	if !reflect.DeepEqual(want.idPos, got.idPos) {
		t.Error("dense ID indexes differ")
	}
	if !reflect.DeepEqual(want.byID, got.byID) {
		t.Error("fallback ID indexes differ")
	}
}

// withSealWorkers fixes the number of workers Seal spends on building the
// posting indexes, split across the parts, in place of GOMAXPROCS for large
// logs and one for small ones. Any worker count must produce bit-identical
// indexes: each part's sort is stable on time and the chunked index build
// preserves event-log order per object.
func withSealWorkers(n int) Option {
	return func(st *Store) { st.sealWorkers = n }
}

// withShardEpoch sets the width, in seconds, of the time slice in the
// host × time routing key in place of one segment span, so a small test
// dataset spreads over the parts.
func withShardEpoch(seconds int64) Option {
	return func(st *Store) { st.shardEpoch = seconds }
}

// list returns obj's posting list and its parallel time column; objects
// interned after Seal (or never seen as this endpoint) have an empty list.
func (p *postings) list(obj event.ObjID) (idx []int32, times []int64) {
	if uint(obj) >= uint(len(p.span)) {
		return nil, nil
	}
	b := p.span[obj]
	return p.idx[b.lo:b.hi], p.times[b.lo:b.hi]
}

// expectTight asserts each part's posting arenas hold exactly its events'
// entries, with no reserved slot: the layout a Seal from nothing builds.
func expectTight(t *testing.T, parts []*part) {
	t.Helper()
	for pi, p := range parts {
		for _, pl := range []*postings{p.byDst, p.bySrc} {
			if n := len(p.events); len(pl.idx) != n || cap(pl.idx) != n || cap(pl.times) != n {
				t.Fatalf("part %d: arena of %d/%d slots for %d events, want a tight one", pi, len(pl.idx), cap(pl.idx), n)
			}
		}
	}
}

// expectSameLists asserts two posting indexes hold the same (idx, times)
// list for every object. Where in its arena a list lies depends on the
// reseals that built it, so the arrays themselves are not compared.
func expectSameLists(t *testing.T, label string, want, got *postings) {
	t.Helper()
	if len(want.span) != len(got.span) {
		t.Errorf("%s: %d objects indexed, want %d", label, len(got.span), len(want.span))
		return
	}
	for obj := range want.span {
		wi, wt := want.list(event.ObjID(obj))
		gi, gt := got.list(event.ObjID(obj))
		if !slices.Equal(wi, gi) || !slices.Equal(wt, gt) {
			t.Errorf("%s: object %d's list is %v at %v, want %v at %v", label, obj, gi, gt, wi, wt)
			return
		}
	}
}

func TestParallelSealMatchesSerial(t *testing.T) {
	// timeRange 300 over 5000 events forces heavy timestamp collisions, so
	// any tie-breaking difference between the serial stable sort and the
	// chunked parallel sort+merge would surface.
	for _, workers := range []int{2, 3, 7, 16} {
		serial := buildTied(t, 5000, 99, 300, withSealWorkers(1))
		parallel := buildTied(t, 5000, 99, 300, withSealWorkers(workers))
		if err := serial.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := parallel.Seal(); err != nil {
			t.Fatal(err)
		}
		expectSameSealed(t, serial, parallel)
		expectTight(t, serial.parts)
		expectTight(t, parallel.parts)

		// Round-trip a few lookups through the public API as well.
		for _, id := range []event.EventID{1, 2500, 5000} {
			se, sok := serial.EventByID(id)
			pe, pok := parallel.EventByID(id)
			if sok != pok || se != pe {
				t.Fatalf("workers=%d: EventByID(%d) = %+v,%v (serial) vs %+v,%v (parallel)",
					workers, id, se, sok, pe, pok)
			}
		}
		for obj := event.ObjID(0); int(obj) < serial.NumObjects(); obj++ {
			if serial.InDegree(obj) != parallel.InDegree(obj) || serial.OutDegree(obj) != parallel.OutDegree(obj) {
				t.Fatalf("workers=%d: degree mismatch for object %d", workers, obj)
			}
		}
	}
}

func TestParallelSealStableTies(t *testing.T) {
	// All events share one timestamp: the sealed log must preserve ingestion
	// order (IDs 1..n) exactly, for any worker count.
	for _, workers := range []int{1, 4, 9} {
		s := New(nil, withSealWorkers(workers))
		p := event.Process("h", "p", 1, 0)
		f := event.File("h", "/f")
		for i := 0; i < 1000; i++ {
			if _, err := s.AddEvent(77, p, f, event.ActWrite, event.FlowOut, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.NumEvents(); i++ {
			if got := s.EventAt(i).ID; got != event.EventID(i+1) {
				t.Fatalf("workers=%d: position %d holds event %d, want %d (stability lost)", workers, i, got, i+1)
			}
		}
	}
}

func TestParallelSealTinyAndEmpty(t *testing.T) {
	// More workers than events, and no events at all.
	s := buildTied(t, 3, 1, 10, withSealWorkers(64))
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if s.NumEvents() != 3 {
		t.Fatalf("NumEvents = %d, want 3", s.NumEvents())
	}

	empty := New(nil, withSealWorkers(8))
	if err := empty.Seal(); err != nil {
		t.Fatal(err)
	}
	if got, err := empty.AppendBackward(nil, 0, 0, 100); err != nil || len(got) != 0 {
		t.Fatalf("query on empty sealed store = %v, %v", got, err)
	}
}

func TestSealNonDenseIDFallback(t *testing.T) {
	// Events injected with sparse IDs (as a hand-built segment could carry)
	// must fall back to the map index and still resolve by ID.
	s := New(nil, withSealWorkers(4))
	p := s.Intern(event.Process("h", "p", 1, 0))
	f := s.Intern(event.File("h", "/f"))
	for i, id := range []event.EventID{10, 700, 3} {
		if err := s.addRaw(event.Event{ID: id, Time: int64(100 + i), Subject: p, Object: f, Action: event.ActWrite, Dir: event.FlowOut}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if s.idPos != nil {
		t.Fatal("sparse IDs must not use the dense index")
	}
	for _, id := range []event.EventID{10, 700, 3} {
		if e, ok := s.EventByID(id); !ok || e.ID != id {
			t.Fatalf("EventByID(%d) = %+v, %v", id, e, ok)
		}
	}
	if _, ok := s.EventByID(11); ok {
		t.Fatal("EventByID(11) should miss")
	}
}

func TestViewSharesSealedIndexArrays(t *testing.T) {
	s := buildTied(t, 2000, 5, 1000, withSealWorkers(3))
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	v, err := s.View(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.parts) != 1 || v.parts[0] != s.parts[0] {
		t.Fatal("view must share the parent's part: event log and posting indexes")
	}
	if &v.dir[0] != &s.dir[0] {
		t.Fatal("view must share the parent's time-order directory")
	}
	if &v.idPos[0] != &s.idPos[0] {
		t.Fatal("view must share the parent's dense ID index")
	}
}
