package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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
	gi, wi := got.ShardInfos(), want.ShardInfos()
	for i := range wi {
		gi[i].SealWall, wi[i].SealWall = 0, 0
	}
	if !reflect.DeepEqual(gi, wi) {
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
			same(label+" flow", func(s *Store) (any, error) { return s.FlowAmount(0, obj, from, to) })
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
