package memo

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// buildStore seals a small history: three processes chained through two
// files and a socket, plus a read-only file and a write-through helper so
// every cached attribute kind has a nontrivial answer.
func buildStore(t testing.TB, clk simclock.Clock) *store.Store {
	t.Helper()
	s := store.New(clk)
	bash := event.Process("h1", "bash", 1, 50)
	cat := event.Process("h1", "cat", 2, 150)
	helper := event.Process("h1", "helper", 4, 160)
	scp := event.Process("h1", "scp", 3, 350)
	fa := event.File("h1", "/tmp/a")
	fb := event.File("h1", "/tmp/b")
	ro := event.File("h1", "/lib/ro.so")
	sock := event.Socket("h1", "10.0.0.1", 4000, "8.8.8.8", 443)

	add := func(tm int64, sub, obj event.Object, a event.Action, d event.Direction, amt int64) {
		if _, err := s.AddEvent(tm, sub, obj, a, d, amt); err != nil {
			t.Fatal(err)
		}
	}
	add(100, bash, fa, event.ActWrite, event.FlowOut, 10)
	add(150, bash, ro, event.ActLoad, event.FlowIn, 0)
	add(160, cat, ro, event.ActLoad, event.FlowIn, 0)
	add(200, cat, fa, event.ActRead, event.FlowIn, 10)
	add(250, bash, helper, event.ActStart, event.FlowOut, 0)
	add(300, cat, fb, event.ActWrite, event.FlowOut, 20)
	add(400, scp, fb, event.ActRead, event.FlowIn, 20)
	add(500, scp, sock, event.ActSend, event.FlowOut, 20)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s
}

func view(t testing.TB, s *store.Store) *store.Store {
	t.Helper()
	v, err := s.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func objID(t testing.TB, s *store.Store, o event.Object) event.ObjID {
	t.Helper()
	id, ok := s.Lookup(o)
	if !ok {
		t.Fatalf("object %v not in store", o)
	}
	return id
}

// TestHitMatchesMissExactly drives every cached query kind twice through
// separate views of the same store and asserts the hit returns the same
// values AND the same charged-cost delta (queries, rows, buckets, clock) as
// the miss. This is the charged-cost invariant at its smallest scale.
func TestHitMatchesMissExactly(t *testing.T) {
	base := buildStore(t, simclock.NewSimulated(time.Time{}))
	c := New(0, nil)
	fa := objID(t, base, event.File("h1", "/tmp/a"))
	ro := objID(t, base, event.File("h1", "/lib/ro.so"))
	helper := objID(t, base, event.Process("h1", "helper", 4, 160))
	bash := objID(t, base, event.Process("h1", "bash", 1, 50))

	type probe struct {
		name string
		run  func(v *View) (string, error)
	}
	probes := []probe{
		// Window fetches are not cached: both views pass through to the
		// store, which must charge them alike.
		{"backward", func(v *View) (string, error) {
			rows, err := v.AppendBackward(nil, fa, 0, 1000)
			return fmt.Sprint(rows), err
		}},
		{"forward", func(v *View) (string, error) {
			rows, err := v.AppendForward(nil, fa, 0, 1000)
			return fmt.Sprint(rows), err
		}},
		{"readonly", func(v *View) (string, error) {
			ok, err := v.IsReadOnlyFile(ro, 0, 1000)
			return fmt.Sprint(ok), err
		}},
		{"write-through", func(v *View) (string, error) {
			ok, err := v.IsWriteThrough(helper, 0, 1000)
			return fmt.Sprint(ok), err
		}},
		{"file-times", func(v *View) (string, error) {
			a, b, cc, err := v.FileTimes(fa, 0, 1000)
			return fmt.Sprint(a, b, cc), err
		}},
		// Type-guard short circuits: no charge may be replayed on a hit.
		{"readonly-nonfile", func(v *View) (string, error) {
			ok, err := v.IsReadOnlyFile(bash, 0, 1000)
			return fmt.Sprint(ok), err
		}},
		{"write-through-nonproc", func(v *View) (string, error) {
			ok, err := v.IsWriteThrough(fa, 0, 1000)
			return fmt.Sprint(ok), err
		}},
	}

	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			var vals [2]string
			var stats [2]store.Stats
			var elapsed [2]time.Duration
			for i := 0; i < 2; i++ {
				sv := view(t, base)
				mv, err := c.Bind(sv, "fp", nil)
				if err != nil {
					t.Fatal(err)
				}
				t0 := sv.Clock().Now()
				vals[i], err = p.run(mv)
				if err != nil {
					t.Fatal(err)
				}
				stats[i] = sv.Stats()
				elapsed[i] = sv.Clock().Now().Sub(t0)
			}
			if vals[0] != vals[1] {
				t.Fatalf("hit value %q != miss value %q", vals[1], vals[0])
			}
			if stats[0] != stats[1] {
				t.Fatalf("charged stats diverged: miss %+v, hit %+v", stats[0], stats[1])
			}
			if elapsed[0] != elapsed[1] {
				t.Fatalf("simulated clock diverged: miss %v, hit %v", elapsed[0], elapsed[1])
			}
		})
	}
	if s := c.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("expected both hits and misses, got %+v", s)
	}
}

// fileTimes evaluates the file-time triple through v.
func fileTimes(t *testing.T, v *View, obj event.ObjID) [3]int64 {
	t.Helper()
	a, b, c, err := v.FileTimes(obj, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return [3]int64{a, b, c}
}

// TestFingerprintPoisoning: a run bound under a different plan-filter
// fingerprint must never be served a verdict cached under another, even for
// the identical (object, range, attribute).
func TestFingerprintPoisoning(t *testing.T) {
	base := buildStore(t, simclock.NewSimulated(time.Time{}))
	c := New(0, nil)
	helper := objID(t, base, event.Process("h1", "helper", 4, 160))
	bind := func(fp string) *View {
		t.Helper()
		v, err := c.Bind(view(t, base), fp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	writeThrough := func(v *View) {
		t.Helper()
		if _, err := v.IsWriteThrough(helper, 0, 1000); err != nil {
			t.Fatal(err)
		}
	}

	writeThrough(bind(`backward|in=|where=file.path != "*.dll"`))
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("priming run: %+v", s)
	}

	writeThrough(bind(`backward|in=|where=`))
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("fingerprint mismatch served a cached verdict: %+v", s)
	}

	// Same fingerprint does share, and interning gives it the same ID.
	a2 := bind(`backward|in=|where=file.path != "*.dll"`)
	writeThrough(a2)
	if s := c.Stats(); s.Hits != 1 {
		t.Fatalf("identical fingerprint should hit: %+v", s)
	}
	if b := bind(`backward|in=|where=`); a2.fp == b.fp {
		t.Fatalf("two fingerprints share ID %d", b.fp)
	}
}

// TestContentSignatureIsolation: two sealed stores with different content
// sharing one cache must never serve each other's verdicts.
func TestContentSignatureIsolation(t *testing.T) {
	s1 := buildStore(t, simclock.NewSimulated(time.Time{}))
	s2 := store.New(simclock.NewSimulated(time.Time{}))
	p := event.Process("h1", "bash", 1, 50)
	f := event.File("h1", "/tmp/a")
	if _, err := s2.AddEvent(111, p, f, event.ActWrite, event.FlowOut, 1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Seal(); err != nil {
		t.Fatal(err)
	}

	c := New(0, nil)
	v1, err := c.Bind(view(t, s1), "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	times1 := fileTimes(t, v1, objID(t, s1, f))
	v2, err := c.Bind(view(t, s2), "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	times2 := fileTimes(t, v2, objID(t, s2, f))
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("stores with different signatures shared entries: %+v", s)
	}
	if times1 != [3]int64{0, 100, 200} || times2 != [3]int64{0, 111, 0} {
		t.Fatalf("each store must serve its own file times: %v vs %v", times1, times2)
	}
}

// TestEvictionBudget: the cache stays within its byte budget and reports
// evictions once verdicts are displaced.
func TestEvictionBudget(t *testing.T) {
	base := buildStore(t, simclock.NewSimulated(time.Time{}))
	fa := objID(t, base, event.File("h1", "/tmp/a"))
	const budget = numShards * entrySize * 2
	c := New(budget, nil)
	v, err := c.Bind(view(t, base), "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct ranges make distinct keys; enough of them must evict.
	for i := int64(0); i < 500; i++ {
		if _, _, _, err := v.FileTimes(fa, i, 1000+i); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Bytes > budget {
		t.Fatalf("resident bytes %d exceed budget %d", s.Bytes, budget)
	}
	if s.Evictions == 0 {
		t.Fatalf("expected evictions under a %d-byte budget: %+v", budget, s)
	}
	if s.Entries == 0 {
		t.Fatal("cache should retain recent entries after eviction")
	}
	if s.Entries+s.Evictions != s.Misses {
		t.Fatalf("every miss caches one entry, resident or evicted: %+v", s)
	}
}

// TestReset drops everything and accounts the drops as evictions.
func TestReset(t *testing.T) {
	base := buildStore(t, simclock.NewSimulated(time.Time{}))
	fa := objID(t, base, event.File("h1", "/tmp/a"))
	c := New(0, nil)
	v, err := c.Bind(view(t, base), "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	fileTimes(t, v, fa)
	pre := c.Stats()
	if pre.Entries == 0 || pre.Bytes == 0 {
		t.Fatalf("expected a resident entry: %+v", pre)
	}
	c.Reset()
	post := c.Stats()
	if post.Entries != 0 || post.Bytes != 0 {
		t.Fatalf("reset left residue: %+v", post)
	}
	if post.Evictions != pre.Entries {
		t.Fatalf("reset should count %d evictions, got %d", pre.Entries, post.Evictions)
	}
	// A view bound before the reset keeps working: its next lookup misses.
	fileTimes(t, v, fa)
	if s := c.Stats(); s.Entries != 1 || s.Misses != pre.Misses+1 {
		t.Fatalf("lookup after reset: %+v", s)
	}
}

// TestConcurrentHitCounts: lookups from many runs at once, each through its
// own view, are all counted exactly once — the per-shard counters summed by
// Stats lose none (run under -race: the views' promotion sampling is
// run-local, the shared state is the shards').
func TestConcurrentHitCounts(t *testing.T) {
	base := buildStore(t, simclock.NewSimulated(time.Time{}))
	objs := []event.ObjID{
		objID(t, base, event.File("h1", "/tmp/a")),
		objID(t, base, event.File("h1", "/tmp/b")),
		objID(t, base, event.File("h1", "/lib/ro.so")),
		objID(t, base, event.Process("h1", "helper", 4, 160)),
	}
	c := New(0, nil)
	const runs, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, runs)
	for r := 0; r < runs; r++ {
		v, err := c.Bind(view(t, base), "fp", nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, o := range objs {
					if _, err := v.IsReadOnlyFile(o, 0, 1000); err != nil {
						errs <- err
						return
					}
					if _, err := v.IsWriteThrough(o, 0, 1000); err != nil {
						errs <- err
						return
					}
					if _, _, _, err := v.FileTimes(o, 0, 1000); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := c.Stats()
	if want := int64(runs * rounds * len(objs) * 3); s.Hits+s.Misses != want {
		t.Fatalf("%d hits + %d misses, want %d lookups", s.Hits, s.Misses, want)
	}
	if s.Entries != int64(len(objs)*3) || s.Hits == 0 {
		t.Fatalf("want %d resident verdicts and hits: %+v", len(objs)*3, s)
	}
}

// storeVerdict is the store's own answer to attribute k of (obj, [from, to))
// and the rows it charges for it.
func storeVerdict(s *store.Store, k kind, obj event.ObjID, from, to int64) (string, int64, error) {
	switch k {
	case kindReadOnly:
		ok, rows, err := s.IsReadOnlyFileRows(obj, from, to)
		return fmt.Sprint(ok), rows, err
	case kindWriteThrough:
		ok, rows, err := s.IsWriteThroughRows(obj, from, to)
		return fmt.Sprint(ok), rows, err
	default:
		a, b, c, rows, err := s.FileTimesRows(obj, from, to)
		return fmt.Sprint(a, b, c), rows, err
	}
}

// viewVerdict is the same question asked through a memo view.
func viewVerdict(v *View, k kind, obj event.ObjID, from, to int64) (string, error) {
	switch k {
	case kindReadOnly:
		ok, err := v.IsReadOnlyFile(obj, from, to)
		return fmt.Sprint(ok), err
	case kindWriteThrough:
		ok, err := v.IsWriteThrough(obj, from, to)
		return fmt.Sprint(ok), err
	default:
		a, b, c, err := v.FileTimes(obj, from, to)
		return fmt.Sprint(a, b, c), err
	}
}

// TestViewMatchesStoreOracle: random lookups from several runs at once, each
// through its own view, under a budget of one entry per shard (so entries are
// evicted while run-local tables still hold them) and with a Reset partway
// through, answer exactly what the store answers and charge exactly the rows
// the store charges — whether a lookup hit the run's table, hit the shared
// cache or missed — and each is counted once, as a hit or a miss.
func TestViewMatchesStoreOracle(t *testing.T) {
	base := buildStore(t, simclock.NewSimulated(time.Time{}))
	var objs []event.ObjID
	for id := 0; id < base.Stats().Objects; id++ {
		objs = append(objs, event.ObjID(id))
	}
	type question struct {
		k        kind
		obj      event.ObjID
		from, to int64
	}
	type answer struct {
		val  string
		rows int64
	}
	var questions []question
	oracle := make(map[question]answer)
	ov := view(t, base)
	for _, k := range []kind{kindReadOnly, kindWriteThrough, kindFileTimes} {
		for _, obj := range objs {
			for _, r := range [][2]int64{{0, 1000}, {0, 250}, {150, 450}, {300, 600}, {120, 130}} {
				q := question{k, obj, r[0], r[1]}
				val, rows, err := storeVerdict(ov, k, obj, r[0], r[1])
				if err != nil {
					t.Fatal(err)
				}
				questions = append(questions, q)
				oracle[q] = answer{val, rows}
			}
		}
	}

	reg := telemetry.NewRegistry()
	c := New(numShards*entrySize, reg)
	const workers, runs, lookups = 4, 3, 400
	var asked atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < runs; r++ {
				sv, err := base.View(simclock.NewSimulated(time.Time{}))
				if err != nil {
					errs <- err
					return
				}
				v, err := c.Bind(sv, "fp", nil)
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < lookups; i++ {
					if w == 0 && r == 1 && i == lookups/2 {
						c.Reset()
					}
					q := questions[rng.Intn(len(questions))]
					before := sv.Stats()
					val, err := viewVerdict(v, q.k, q.obj, q.from, q.to)
					if err != nil {
						errs <- err
						return
					}
					asked.Add(1)
					after, want := sv.Stats(), oracle[q]
					rows, queries := max(want.rows, 0), int64(0)
					if want.rows != store.NoCharge {
						queries = 1
					}
					if val != want.val || after.RowsExamined-before.RowsExamined != rows || after.Queries-before.Queries != queries {
						errs <- fmt.Errorf("%+v: view answered %q charging %d rows in %d queries, store %q charging %d",
							q, val, after.RowsExamined-before.RowsExamined, after.Queries-before.Queries, want.val, want.rows)
						return
					}
				}
				v.Flush() // as the executor does when a run ends
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Hits+s.Misses != asked.Load() {
		t.Fatalf("%d hits + %d misses, want %d lookups", s.Hits, s.Misses, asked.Load())
	}
	if hits := reg.Counter(telemetry.MetricMemoHits).Value(); hits != s.Hits {
		t.Fatalf("%s = %d after every run flushed, Stats says %d hits", telemetry.MetricMemoHits, hits, s.Hits)
	}
	if s.Evictions == 0 || s.Hits == 0 || s.Bytes > numShards*entrySize {
		t.Fatalf("want evictions and hits within a one-entry-per-shard budget: %+v", s)
	}
}

// BenchmarkHitParallel is the hit path as a batch fleet drives it: one view
// per goroutine, all on a few hot keys.
func BenchmarkHitParallel(b *testing.B) {
	base := buildStore(b, simclock.NewSimulated(time.Time{}))
	objs := []event.ObjID{
		objID(b, base, event.File("h1", "/tmp/a")),
		objID(b, base, event.File("h1", "/lib/ro.so")),
		objID(b, base, event.Process("h1", "helper", 4, 160)),
	}
	c := New(0, nil)
	b.RunParallel(func(pb *testing.PB) {
		sv, err := base.View(simclock.NewSimulated(time.Time{}))
		if err != nil {
			b.Error(err)
			return
		}
		v, err := c.Bind(sv, "fp", nil)
		if err != nil {
			b.Error(err)
			return
		}
		for i := 0; pb.Next(); i++ {
			if _, err := v.IsWriteThrough(objs[i%len(objs)], 0, 1000); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// TestNilCache: binding a nil cache means "memo off".
func TestNilCache(t *testing.T) {
	var c *Cache
	v, err := c.Bind(nil, "fp", nil)
	if err != nil || v != nil {
		t.Fatalf("nil cache bind = (%v, %v), want (nil, nil)", v, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	c.Reset() // must not panic
}

// TestUnsealedBindFails: the memo is defined over sealed content only.
func TestUnsealedBindFails(t *testing.T) {
	s := store.New(simclock.NewSimulated(time.Time{}))
	if _, err := New(0, nil).Bind(s, "fp", nil); err == nil {
		t.Fatal("binding an unsealed store should fail")
	}
}

// TestReshardPoisoning: the same events partitioned into different shard
// counts must never share cache entries — a verdict computed under one
// partitioning could otherwise replay against a reshard whose signature has
// to differ (store.ContentSignature folds in the shard composition). Results
// must still be identical, served by fresh misses, because sharding is
// real-CPU-only acceleration.
func TestReshardPoisoning(t *testing.T) {
	buildSharded := func(n int) *store.Store {
		s := store.New(simclock.NewSimulated(time.Time{}), store.WithShards(n))
		bash := event.Process("h1", "bash", 1, 50)
		web := event.Process("h2", "web", 2, 60)
		fa := event.File("h1", "/tmp/a")
		fb := event.File("h2", "/srv/b")
		add := func(tm int64, sub, obj event.Object, a event.Action, d event.Direction, amt int64) {
			if _, err := s.AddEvent(tm, sub, obj, a, d, amt); err != nil {
				t.Fatal(err)
			}
		}
		add(100, bash, fa, event.ActWrite, event.FlowOut, 10)
		add(200, web, fb, event.ActWrite, event.FlowOut, 20)
		add(300, bash, fb, event.ActRead, event.FlowIn, 20)
		add(400, web, fa, event.ActRead, event.FlowIn, 10)
		if err := s.Seal(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	two, three := buildSharded(2), buildSharded(3)
	sig2, err := two.ContentSignature()
	if err != nil {
		t.Fatal(err)
	}
	sig3, err := three.ContentSignature()
	if err != nil {
		t.Fatal(err)
	}
	if sig2 == sig3 {
		t.Fatal("reshard kept the content signature; stale verdicts would replay")
	}

	c := New(0, nil)
	v2, err := c.Bind(view(t, two), "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	times2 := fileTimes(t, v2, objID(t, two, event.File("h2", "/srv/b")))
	v3, err := c.Bind(view(t, three), "fp", nil)
	if err != nil {
		t.Fatal(err)
	}
	times3 := fileTimes(t, v3, objID(t, three, event.File("h2", "/srv/b")))
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Fatalf("resharded stores shared cache entries: %+v", s)
	}
	if times2 != times3 || times2 == ([3]int64{}) {
		t.Fatalf("reshard changed query results: %v vs %v", times2, times3)
	}
}
