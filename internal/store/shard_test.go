package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
)

// genEvent is one ingestion record of a random differential-test workload.
type genEvent struct {
	t       int64
	subject event.Object
	object  event.Object
	action  event.Action
	dir     event.Direction
	amount  int64
}

// randomWorkload fabricates a multi-host event stream with heavy timestamp
// collisions (so cross-shard merge tiebreaking is actually exercised), file
// and socket objects, and every action class the attribute evaluations look
// at. Events arrive in random (non-sorted) time order, like AddEvent allows.
func randomWorkload(seed int64, hosts, n int) []genEvent {
	rng := rand.New(rand.NewSource(seed))
	actions := []event.Action{
		event.ActWrite, event.ActRead, event.ActCreate, event.ActDelete,
		event.ActRename, event.ActChmod, event.ActLoad, event.ActSend, event.ActRecv,
	}
	out := make([]genEvent, 0, n)
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("host-%02d", rng.Intn(hosts))
		proc := event.Process(host, fmt.Sprintf("proc-%d", rng.Intn(6)), int32(rng.Intn(6)+1), 1)
		var obj event.Object
		switch rng.Intn(4) {
		case 0:
			obj = event.Process(host, fmt.Sprintf("child-%d", rng.Intn(4)), int32(rng.Intn(4)+100), 2)
		case 1:
			obj = event.Socket(host, "10.0.0.1", 4000, "8.8.8.8", uint16(rng.Intn(3)+440))
		default:
			obj = event.File(host, fmt.Sprintf("/data/f%d", rng.Intn(10)))
		}
		dir := event.FlowOut
		if rng.Intn(2) == 0 {
			dir = event.FlowIn
		}
		out = append(out, genEvent{
			// Coarse times force equal timestamps across hosts and shards.
			t:       int64(1000 + rng.Intn(n/4+1)*50),
			subject: proc,
			object:  obj,
			action:  actions[rng.Intn(len(actions))],
			dir:     dir,
			amount:  int64(rng.Intn(1000)),
		})
	}
	return out
}

func buildWorkload(t *testing.T, evs []genEvent, clk simclock.Clock, opts ...Option) *Store {
	t.Helper()
	s := New(clk, opts...)
	for _, g := range evs {
		if _, err := s.AddEvent(g.t, g.subject, g.object, g.action, g.dir, g.amount); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s
}

// diffStats returns the query-counter deltas between two snapshots.
func diffStats(before, after Stats) (q, rows, buckets int64) {
	return after.Queries - before.Queries,
		after.RowsExamined - before.RowsExamined,
		after.BucketsPruned - before.BucketsPruned
}

// assertSameCharge runs op against both stores and requires identical stats
// deltas and identical simulated-clock advances.
func assertSameCharge(t *testing.T, label string, flat, sharded *Store, flatClk, shClk *simclock.Simulated, op func(s *Store) (any, error)) {
	t.Helper()
	fb, sb := flat.Stats(), sharded.Stats()
	fc, sc := flatClk.Now(), shClk.Now()
	fres, ferr := op(flat)
	sres, serr := op(sharded)
	if (ferr == nil) != (serr == nil) {
		t.Fatalf("%s: error divergence: flat=%v sharded=%v", label, ferr, serr)
	}
	if fmt.Sprintf("%v", fres) != fmt.Sprintf("%v", sres) {
		t.Fatalf("%s: result divergence:\nflat:    %v\nsharded: %v", label, fres, sres)
	}
	fq, fr, fk := diffStats(fb, flat.Stats())
	sq, sr, sk := diffStats(sb, sharded.Stats())
	if fq != sq || fr != sr || fk != sk {
		t.Fatalf("%s: stats delta divergence: flat=(%d,%d,%d) sharded=(%d,%d,%d)",
			label, fq, fr, fk, sq, sr, sk)
	}
	if fd, sd := flatClk.Now().Sub(fc), shClk.Now().Sub(sc); fd != sd {
		t.Fatalf("%s: simulated cost divergence: flat=%v sharded=%v", label, fd, sd)
	}
}

// TestShardDifferential is the tentpole's property test: for random datasets
// and random windows, every query API of an N-shard store — results, stats
// deltas, and simulated cost — is identical to the flat store's, for
// N ∈ {1, 2, 3, 7}.
func TestShardDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7} {
		n := n
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			evs := randomWorkload(42+int64(n), 5, 4000)
			flatClk := simclock.NewSimulated(time.Time{})
			shClk := simclock.NewSimulated(time.Time{})
			flat := buildWorkload(t, evs, flatClk)
			sharded := buildWorkload(t, evs, shClk, WithShards(n), withShardEpoch(500))
			if want := n; n > 1 && sharded.ShardCount() != want {
				t.Fatalf("ShardCount = %d, want %d", sharded.ShardCount(), want)
			}

			// Whole-log identity: same count, same global order, same IDs.
			if flat.NumEvents() != sharded.NumEvents() {
				t.Fatalf("NumEvents: %d vs %d", flat.NumEvents(), sharded.NumEvents())
			}
			for i := 0; i < flat.NumEvents(); i++ {
				if flat.EventAt(i) != sharded.EventAt(i) {
					t.Fatalf("EventAt(%d): %+v vs %+v", i, flat.EventAt(i), sharded.EventAt(i))
				}
			}
			for id := event.EventID(1); int(id) <= flat.NumEvents(); id++ {
				fe, fok := flat.EventByID(id)
				se, sok := sharded.EventByID(id)
				if fok != sok || fe != se {
					t.Fatalf("EventByID(%d): (%v,%v) vs (%v,%v)", id, fe, fok, se, sok)
				}
			}

			rng := rand.New(rand.NewSource(7))
			minT, maxT, _ := flat.TimeRange()
			randWindow := func() (int64, int64) {
				a := minT + rng.Int63n(maxT-minT+1)
				b := minT + rng.Int63n(maxT-minT+1)
				if a > b {
					a, b = b, a
				}
				return a, b + 1
			}
			numObj := flat.NumObjects()
			for q := 0; q < 400; q++ {
				obj := event.ObjID(rng.Intn(numObj))
				from, to := randWindow()
				label := fmt.Sprintf("q%d obj=%d [%d,%d)", q, obj, from, to)
				assertSameCharge(t, label+" back", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
					return s.AppendBackward(nil, obj, from, to)
				})
				assertSameCharge(t, label+" fwd", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
					return s.AppendForward(nil, obj, from, to)
				})
				assertSameCharge(t, label+" countb", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
					return s.CountBackward(obj, from, to)
				})
				assertSameCharge(t, label+" countf", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
					return s.CountForward(obj, from, to)
				})
				assertSameCharge(t, label+" readonly", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
					ro, rows, err := s.IsReadOnlyFileRows(obj, from, to)
					return []any{ro, rows}, err
				})
				assertSameCharge(t, label+" through", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
					wt, rows, err := s.IsWriteThroughRows(obj, from, to)
					return []any{wt, rows}, err
				})
				assertSameCharge(t, label+" ftimes", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
					c, m, a, rows, err := s.FileTimesRows(obj, from, to)
					return []any{c, m, a, rows}, err
				})
				if flat.InDegree(obj) != sharded.InDegree(obj) || flat.OutDegree(obj) != sharded.OutDegree(obj) {
					t.Fatalf("%s: degree divergence", label)
				}
			}

			// Scan over a random window, with and without early exit.
			from, to := randWindow()
			assertSameCharge(t, "scan", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
				var got []event.EventID
				err := s.Scan(from, to, func(e event.Event) bool {
					got = append(got, e.ID)
					return true
				})
				return got, err
			})
			assertSameCharge(t, "scan early-exit", flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
				var got []event.EventID
				err := s.Scan(from, to, func(e event.Event) bool {
					got = append(got, e.ID)
					return len(got) < 17
				})
				return got, err
			})

			// Sampling must consume the identical random stream.
			fs := flat.RandomEvents(100, rand.New(rand.NewSource(99)))
			ss := sharded.RandomEvents(100, rand.New(rand.NewSource(99)))
			if fmt.Sprintf("%v", fs) != fmt.Sprintf("%v", ss) {
				t.Fatal("RandomEvents diverged between flat and sharded")
			}

			// Views carry the shard router and stay differential.
			fv, err := flat.View(nil)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := sharded.View(nil)
			if err != nil {
				t.Fatal(err)
			}
			b1, _ := fv.AppendBackward(nil, 3, minT, maxT)
			b2, _ := sv.AppendBackward(nil, 3, minT, maxT)
			if fmt.Sprintf("%v", b1) != fmt.Sprintf("%v", b2) {
				t.Fatal("view query diverged")
			}
			if fv.Stats() != sv.Stats() {
				t.Fatalf("view stats diverged: %+v vs %+v", fv.Stats(), sv.Stats())
			}
		})
	}
}

// TestShardCollectMatchesDifferential exercises the batch start-scan API:
// matches, order, and charge must be flat-identical for any shard count.
func TestShardCollectMatchesDifferential(t *testing.T) {
	evs := randomWorkload(7, 4, 3000)
	for _, n := range []int{1, 2, 3, 7} {
		flatClk := simclock.NewSimulated(time.Time{})
		shClk := simclock.NewSimulated(time.Time{})
		flat := buildWorkload(t, evs, flatClk)
		sharded := buildWorkload(t, evs, shClk, WithShards(n))
		minT, maxT, _ := flat.TimeRange()
		pred := func() func(event.Event) (bool, error) {
			return func(e event.Event) (bool, error) {
				return e.Action == event.ActSend && e.Amount > 100, nil
			}
		}
		assertSameCharge(t, fmt.Sprintf("collect n=%d", n), flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
			return s.CollectMatches(minT, maxT+1, pred)
		})
	}
}

// TestShardEdgeCases covers the satellite's named edge cases: shards that
// receive no events at all, and a single-host workload that skews everything
// into few shards.
func TestShardEdgeCases(t *testing.T) {
	t.Run("empty shards", func(t *testing.T) {
		// 1 host × 1 epoch cell with 7 shards: six shards stay empty.
		clk := simclock.NewSimulated(time.Time{})
		s := New(clk, WithShards(7), withShardEpoch(1<<40))
		host := event.Process("only-host", "p", 1, 1)
		f := event.File("only-host", "/f")
		for i := 0; i < 50; i++ {
			if _, err := s.AddEvent(int64(1000+i), host, f, event.ActWrite, event.FlowOut, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		nonEmpty := 0
		for _, p := range s.parts {
			if len(p.events) > 0 {
				nonEmpty++
			}
		}
		if nonEmpty != 1 {
			t.Fatalf("expected exactly 1 non-empty shard, got %d", nonEmpty)
		}
		got, err := s.AppendBackward(nil, s.Intern(f), 0, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 50 {
			t.Fatalf("AppendBackward over empty-shard layout: %d events, want 50", len(got))
		}
		if s.Stats().RowsExamined != 50 || s.Stats().Queries != 1 {
			t.Fatalf("charge wrong with empty shards: %+v", s.Stats())
		}
	})
	t.Run("single-host skew", func(t *testing.T) {
		evs := randomWorkload(13, 1, 2000) // one host: only time epochs spread load
		flatClk := simclock.NewSimulated(time.Time{})
		shClk := simclock.NewSimulated(time.Time{})
		flat := buildWorkload(t, evs, flatClk)
		sharded := buildWorkload(t, evs, shClk, WithShards(4), withShardEpoch(200))
		minT, maxT, _ := flat.TimeRange()
		for obj := 0; obj < flat.NumObjects(); obj++ {
			assertSameCharge(t, fmt.Sprintf("skew obj=%d", obj), flat, sharded, flatClk, shClk, func(s *Store) (any, error) {
				return s.AppendBackward(nil, event.ObjID(obj), minT, maxT+1)
			})
		}
	})
	t.Run("empty store", func(t *testing.T) {
		s := New(nil, WithShards(3))
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.TimeRange(); ok {
			t.Fatal("empty sharded store reported a time range")
		}
		if got, err := s.AppendBackward(nil, 0, 0, 100); err != nil || len(got) != 0 {
			t.Fatalf("empty sharded store query: %v, %v", got, err)
		}
	})
}

// TestShardSealDeterminism requires bit-identical sharded stores for any
// GOMAXPROCS and any seal-worker count.
func TestShardSealDeterminism(t *testing.T) {
	evs := randomWorkload(3, 4, 6000)
	build := func(workers int) *Store {
		return buildWorkload(t, evs, nil, WithShards(4), withSealWorkers(workers))
	}
	ref := build(1)
	old := runtime.GOMAXPROCS(1)
	serial := build(8)
	runtime.GOMAXPROCS(old)
	parallel := build(8)
	for _, s := range []*Store{serial, parallel} {
		if s.NumEvents() != ref.NumEvents() {
			t.Fatal("event count diverged")
		}
		for i := 0; i < ref.NumEvents(); i++ {
			if ref.EventAt(i) != s.EventAt(i) {
				t.Fatalf("EventAt(%d) diverged across GOMAXPROCS/worker settings", i)
			}
		}
		a, _ := ref.ContentSignature()
		b, _ := s.ContentSignature()
		if a != b {
			t.Fatal("content signature diverged across GOMAXPROCS/worker settings")
		}
	}
}

// TestShardSignatureChangesOnReshard is the memo-poisoning guard at the
// store layer: identical events, different partitioning → different
// ContentSignature, so no cache keyed on the signature can replay across a
// reshard. The flat signature must also differ from any sharded one.
func TestShardSignatureChangesOnReshard(t *testing.T) {
	evs := randomWorkload(11, 4, 1500)
	sigs := make(map[uint64]int)
	for _, n := range []int{1, 2, 3} {
		s := buildWorkload(t, evs, nil, WithShards(n))
		sig, err := s.ContentSignature()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := sigs[sig]; dup {
			t.Fatalf("shards=%d and shards=%d share a content signature", n, prev)
		}
		sigs[sig] = n
	}
}

// TestShardSaveOpenRoundTrip: a sharded store persists byte-identically to
// its flat twin, records its layout in the manifest, and reopens sharded —
// still differential with the flat store.
func TestShardSaveOpenRoundTrip(t *testing.T) {
	evs := randomWorkload(5, 4, 2500)
	flat := buildWorkload(t, evs, nil)
	sharded := buildWorkload(t, evs, nil, WithShards(3))

	flatDir := t.TempDir()
	shardDir := t.TempDir()
	if err := flat.Save(flatDir); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Save(shardDir); err != nil {
		t.Fatal(err)
	}
	// Segment and object files must match byte for byte (the manifest
	// differs only by the shard fields).
	ents, err := filepath.Glob(filepath.Join(flatDir, "*.dat"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no segment files: %v", err)
	}
	for _, fp := range ents {
		a, err := os.ReadFile(fp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(shardDir, filepath.Base(fp)))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between flat and sharded save", filepath.Base(fp))
		}
	}

	re, err := Open(shardDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.ShardCount() != 3 {
		t.Fatalf("reopened ShardCount = %d, want 3", re.ShardCount())
	}
	if re.NumEvents() != flat.NumEvents() {
		t.Fatal("reopened event count diverged")
	}
	for i := 0; i < flat.NumEvents(); i++ {
		if flat.EventAt(i) != re.EventAt(i) {
			t.Fatalf("EventAt(%d) diverged after reopen", i)
		}
	}
	minT, maxT, _ := flat.TimeRange()
	for obj := 0; obj < min(flat.NumObjects(), 20); obj++ {
		a, _ := flat.AppendBackward(nil, event.ObjID(obj), minT, maxT+1)
		b, _ := re.AppendBackward(nil, event.ObjID(obj), minT, maxT+1)
		if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
			t.Fatalf("query diverged after reopen (obj %d)", obj)
		}
	}
	// Flatten-on-open override.
	reflat, err := Open(shardDir, nil, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if reflat.ShardCount() != 1 {
		t.Fatalf("WithShards(1) override ignored: %d", reflat.ShardCount())
	}
}

// TestShardConfigErrors pins the router's misuse guards.
func TestShardConfigErrors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithShards beyond MaxShards must panic at New")
		}
	}()
	s := New(nil, WithShards(2))
	host := event.Process("h", "p", 1, 1)
	if _, err := s.AddEvent(5, host, event.File("h", "/f"), event.ActWrite, event.FlowOut, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.configureShards(4, 0); err == nil {
		t.Fatal("configureShards after events must fail")
	}
	New(nil, WithShards(MaxShards+1)) // panics
}
