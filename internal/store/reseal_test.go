package store

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"aptrace/internal/event"
	"aptrace/internal/simclock"
)

// arrivals fabricates a live feed of n events as a sequence of batches, each
// in one arrival pattern: in time order, all in one second, late (reaching
// back across everything already sent), or in order but naming objects never
// seen before. Times are coarse so ties between batches and parts are common.
func arrivals(seed int64, n int) [][]genEvent {
	rng := rand.New(rand.NewSource(seed))
	var batches [][]genEvent
	now, fresh := int64(1000), 0
	for sent := 0; sent < n; {
		size := min(1+rng.Intn(60), n-sent)
		mode := rng.Intn(4)
		b := make([]genEvent, size)
		for i := range b {
			host := fmt.Sprintf("host-%d", rng.Intn(5))
			g := genEvent{
				subject: event.Process(host, fmt.Sprintf("proc-%d", rng.Intn(5)), int32(rng.Intn(4)+1), 1),
				object:  event.File(host, fmt.Sprintf("/data/f%d", rng.Intn(8))),
				action:  event.ActWrite,
				dir:     event.FlowOut,
				amount:  int64(rng.Intn(100)),
			}
			if rng.Intn(2) == 0 {
				g.action, g.dir = event.ActRead, event.FlowIn
			}
			switch mode {
			case 0: // in order
				now += int64(rng.Intn(3)) * 10
			case 1: // one second
			case 2: // late
				g.t = 1000 + rng.Int63n(now-1000+1)
			case 3: // in order, new objects
				now += int64(rng.Intn(2)) * 10
				fresh++
				g.object = event.File(host, fmt.Sprintf("/new/%d", fresh))
			}
			if mode != 2 {
				g.t = now
			}
			b[i] = g
		}
		batches = append(batches, b)
		sent += size
	}
	return batches
}

// expectSameStore requires got — a live snapshot — to equal want, a fresh
// store sealed from the same events: bit-identical internals, the same
// signature, segment files and object table, and the same answer, stats and
// charged cost from every query API.
func expectSameStore(t *testing.T, got, want *Store, gotClk, wantClk *simclock.Simulated) {
	t.Helper()
	expectSameSealed(t, want, got)
	if t.Failed() {
		t.FailNow()
	}
	if !reflect.DeepEqual(got.Objects(), want.Objects()) {
		t.Fatal("object tables differ")
	}
	for id, o := range want.Objects() {
		if gid, ok := got.Lookup(o); !ok || gid != event.ObjID(id) {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", o.Key(), gid, ok, id)
		}
	}
	if gi, wi := got.ShardInfos(), want.ShardInfos(); !reflect.DeepEqual(gi, wi) {
		t.Fatalf("shard infos differ:\n got %+v\nwant %+v", gi, wi)
	}
	gs, _ := got.ContentSignature()
	ws, _ := want.ContentSignature()
	if gs != ws {
		t.Fatalf("ContentSignature %016x, fresh seal %016x", gs, ws)
	}
	gdir, wdir := t.TempDir(), t.TempDir()
	if err := got.Save(gdir); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(wdir); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(wdir, "*"))
	for _, f := range files {
		a, _ := os.ReadFile(f)
		b, err := os.ReadFile(filepath.Join(gdir, filepath.Base(f)))
		if err != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s differs from the fresh seal's (%v)", filepath.Base(f), err)
		}
	}

	same := func(label string, op func(s *Store) (any, error)) {
		t.Helper()
		assertSameCharge(t, label, want, got, wantClk, gotClk, op)
	}
	for i := 0; i < want.NumEvents(); i++ {
		if got.EventAt(i) != want.EventAt(i) {
			t.Fatalf("EventAt(%d) = %+v, want %+v", i, got.EventAt(i), want.EventAt(i))
		}
	}
	for id := event.EventID(0); int(id) <= want.NumEvents()+1; id++ {
		ge, gok := got.EventByID(id)
		we, wok := want.EventByID(id)
		if ge != we || gok != wok {
			t.Fatalf("EventByID(%d) = %+v, %v; want %+v, %v", id, ge, gok, we, wok)
		}
	}
	minT, maxT, _ := want.TimeRange()
	for obj := event.ObjID(0); int(obj) < want.NumObjects(); obj++ {
		for _, w := range [][2]int64{{minT, maxT + 1}, {minT + (maxT-minT)/3, maxT - (maxT-minT)/3}} {
			from, to := w[0], w[1]
			label := fmt.Sprintf("obj=%d [%d,%d)", obj, from, to)
			same(label+" back", func(s *Store) (any, error) { return s.AppendBackward(nil, obj, from, to) })
			same(label+" fwd", func(s *Store) (any, error) { return s.AppendForward(nil, obj, from, to) })
			same(label+" countb", func(s *Store) (any, error) { return s.CountBackward(obj, from, to) })
			same(label+" countf", func(s *Store) (any, error) { return s.CountForward(obj, from, to) })
			same(label+" readonly", func(s *Store) (any, error) {
				ro, rows, err := s.IsReadOnlyFileRows(obj, from, to)
				return []any{ro, rows}, err
			})
			same(label+" through", func(s *Store) (any, error) {
				wt, rows, err := s.IsWriteThroughRows(obj, from, to)
				return []any{wt, rows}, err
			})
			same(label+" ftimes", func(s *Store) (any, error) {
				c, m, a, rows, err := s.FileTimesRows(obj, from, to)
				return []any{c, m, a, rows}, err
			})
		}
	}
	same("scan", func(s *Store) (any, error) {
		var ids []event.EventID
		err := s.Scan(minT, maxT+1, func(e event.Event) bool { ids = append(ids, e.ID); return true })
		return ids, err
	})
}

// TestResealMatchesFreshSeal is the incremental snapshot's property test:
// after every batch of a random feed — in-order, same-second, late and
// new-object arrivals — the live store's snapshot equals a fresh New + Seal
// of the same events, for one part and for several. At the end every earlier
// snapshot is checked again: later appends and reseals never changed a byte
// it reads.
func TestResealMatchesFreshSeal(t *testing.T) {
	for _, parts := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			opts := []Option{WithShards(parts), WithShardEpoch(40)}
			liveClk := simclock.NewSimulated(time.Time{})
			l, err := OpenLive(t.TempDir(), liveClk, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			type pair struct {
				snap, fresh *Store
				freshClk    *simclock.Simulated
			}
			var pairs []pair
			var sent []genEvent
			for _, batch := range arrivals(int64(parts), 600) {
				for _, g := range batch {
					if _, err := l.Append(g.t, g.subject, g.object, g.action, g.dir, g.amount); err != nil {
						t.Fatal(err)
					}
				}
				sent = append(sent, batch...)
				snap, err := l.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				freshClk := simclock.NewSimulated(time.Time{})
				fresh := buildWorkload(t, sent, freshClk, opts...)
				expectSameStore(t, snap, fresh, liveClk, freshClk)
				pairs = append(pairs, pair{snap, fresh, freshClk})
			}
			for i, p := range pairs {
				expectSameSealed(t, p.fresh, p.snap)
				if t.Failed() {
					t.Fatalf("snapshot %d changed after later appends and reseals", i)
				}
			}
		})
	}
}

// TestIdleSnapshotIsFree: with nothing appended since the last snapshot, the
// next one is that same store, and taking it allocates nothing.
func TestIdleSnapshotIsFree(t *testing.T) {
	l, err := OpenLive(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	liveAppend(t, l, 100, "svc", "/a")
	first, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := l.Snapshot(); again != first {
		t.Fatal("an idle reseal built a new store")
	}
	if allocs := testing.AllocsPerRun(100, func() { l.Snapshot() }); allocs != 0 {
		t.Fatalf("an idle reseal allocates %.0f times", allocs)
	}
	liveAppend(t, l, 200, "svc", "/b")
	next, _ := l.Snapshot()
	if next == first || next.NumEvents() != 2 || first.NumEvents() != 1 {
		t.Fatalf("after an append: new store %v, %d events (first still %d)", next != first, next.NumEvents(), first.NumEvents())
	}
}

// feedInOrder commits n events to l in time order from now on — reads and
// writes between a few processes per host and a skewed pool of files — and
// returns the last time used.
func feedInOrder(tb testing.TB, l *Live, rng *rand.Rand, now int64, n, files int) int64 {
	tb.Helper()
	recs := make([]Record, n)
	for i := range recs {
		now += int64(rng.Intn(2))
		host := fmt.Sprintf("host-%d", rng.Intn(4))
		recs[i] = Record{Time: now, Action: event.ActWrite, Dir: event.FlowOut, Amount: int64(rng.Intn(100)),
			Subject: event.Process(host, fmt.Sprintf("proc-%d", rng.Intn(8)), int32(rng.Intn(4)+1), 1),
			Object:  event.File(host, fmt.Sprintf("/data/f%d", rng.Intn(1+rng.Intn(files))))}
		if rng.Intn(2) == 0 {
			recs[i].Action, recs[i].Dir = event.ActRead, event.FlowIn
		}
	}
	if _, err := l.Commit(recs); err != nil {
		tb.Fatal(err)
	}
	return now
}

// tightCopy copies p's lists into fresh arrays, so a later comparison sees
// what p read when it was copied.
func tightCopy(p *postings) *postings {
	c := &postings{span: make([]span, len(p.span))}
	for obj := range p.span {
		idx, times := p.list(event.ObjID(obj))
		c.span[obj] = span{int32(len(c.idx)), int32(len(c.idx) + len(idx))}
		c.idx, c.times = append(c.idx, idx...), append(c.times, times...)
	}
	return c
}

// TestResealAppendsInPlace: a live store fed in time order reseals into the
// posting arenas of the snapshot before — a list grows into the slots
// reserved behind it — except at a compaction, and compacts each arena a
// number of times logarithmic in its event count. The first snapshot and one
// that late arrivals reorder are laid out tight, as a Seal from nothing is,
// and at the end every snapshot still reads the lists it read when taken.
func TestResealAppendsInPlace(t *testing.T) {
	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			l, err := OpenLive(t.TempDir(), nil, WithShards(parts), WithShardEpoch(40))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			rng := rand.New(rand.NewSource(int64(parts)))
			const batches, size = 50, 200
			var snaps []*Store
			var copies [][]*postings
			compactions := make([]int, 2*parts) // per part and endpoint index
			grewInPlace, now := 0, int64(1000)
			for b := 0; b < batches; b++ {
				now = feedInOrder(t, l, rng, now, size, 400)
				snap, err := l.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if b == 0 {
					expectTight(t, snap.parts)
				} else {
					prev := snaps[b-1]
					for pi, p := range snap.parts {
						for k, pl := range []*postings{p.byDst, p.bySrc} {
							was := prev.parts[pi].post(k == 1)
							if unsafe.SliceData(pl.idx) != unsafe.SliceData(was.idx) || unsafe.SliceData(pl.times) != unsafe.SliceData(was.times) {
								compactions[2*pi+k]++
								continue
							}
							for obj, sp := range was.span {
								if sp.lo == pl.span[obj].lo && sp.hi < pl.span[obj].hi {
									grewInPlace++
								}
							}
						}
					}
				}
				snaps = append(snaps, snap)
				var c []*postings
				for _, p := range snap.parts {
					c = append(c, tightCopy(p.byDst), tightCopy(p.bySrc))
				}
				copies = append(copies, c)
			}
			if grewInPlace == 0 {
				t.Fatal("no list grew in place")
			}
			for i, c := range compactions {
				n := len(snaps[batches-1].parts[i/2].events)
				if limit := bits.Len(uint(n)); c > limit {
					t.Errorf("part %d, index %d: %d compactions over %d events in %d reseals, want at most %d", i/2, i%2, c, n, batches-1, limit)
				}
			}
			for si, s := range snaps {
				for pi, p := range s.parts {
					expectSameLists(t, fmt.Sprintf("snapshot %d, part %d: byDst", si, pi), copies[si][2*pi], p.byDst)
					expectSameLists(t, fmt.Sprintf("snapshot %d, part %d: bySrc", si, pi), copies[si][2*pi+1], p.bySrc)
				}
			}

			// One event behind everything published moves the logs it lands
			// in: that reseal lays those parts out fresh and tight.
			liveAppend(t, l, 999, "late", "/late")
			snap, err := l.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for pi, p := range snap.parts {
				if was := snaps[batches-1].parts[pi]; len(p.events) > len(was.events) {
					expectTight(t, []*part{p})
				}
			}
		})
	}
}

// TestResealUnderReaders: readers querying snapshot k while the writer
// commits and reseals k+1, k+2, … read the answers they read before the
// reseals began. Under the race detector a reseal that wrote a slot an
// earlier snapshot reads would be reported as well as miscounted.
func TestResealUnderReaders(t *testing.T) {
	l, err := OpenLive(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(9))
	now := int64(1000)
	for range 12 { // past the first compactions, so lists hold reservations
		now = feedInOrder(t, l, rng, now, 300, 200)
		if _, err := l.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	minT, maxT, _ := snap.TimeRange()
	answers := func(s *Store, obj event.ObjID) string {
		back, err := s.AppendBackward(nil, obj, minT, maxT+1)
		if err != nil {
			t.Error(err)
		}
		n, _ := s.CountBackward(obj, minT+(maxT-minT)/2, maxT+1)
		c, m, a, _ := s.FileTimes(obj, minT, maxT+1)
		return fmt.Sprint(back, n, c, m, a)
	}
	want := make([]string, snap.NumObjects())
	for obj := range want {
		want[obj] = answers(snap, event.ObjID(obj))
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		v, err := snap.View(simclock.NewSimulated(time.Time{}))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for obj, w := range want {
					if got := answers(v, event.ObjID(obj)); got != w {
						t.Errorf("object %d: read %s during the reseals, %s before", obj, got, w)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for range 20 {
		now = feedInOrder(t, l, rng, now, 300, 200)
		if _, err := l.Snapshot(); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// BenchmarkResealTail is a detection pass's reseal: a live store of 200,000
// in-order events — fed in 5,000-event batches with a snapshot after each,
// as the daemon's store is — resealed after one more 5,000-event batch. Every
// iteration reseals the same tail onto the same snapshot (the write side's
// reservations are put back first, untimed); ns/event is per tail event.
func BenchmarkResealTail(b *testing.B) {
	const base, batch = 200_000, 5_000
	l, err := OpenLive(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(1))
	now := int64(1000)
	for n := 0; n < base; n += batch {
		now = feedInOrder(b, l, rng, now, batch, 20_000)
		if _, err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	feedInOrder(b, l, rng, now, batch, 20_000)
	prev, ends := l.snap, l.w.parts[0].ends
	ends = [2][]int32{slices.Clone(ends[0]), slices.Clone(ends[1])}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		l.snap = prev
		l.w.parts[0].ends = [2][]int32{slices.Clone(ends[0]), slices.Clone(ends[1])}
		b.StartTimer()
		if _, err := l.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/event")
}
