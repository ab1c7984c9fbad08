package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/pages"
	"aptrace/internal/telemetry"
)

// TestHubPacing holds the hub to its pacing rule: a run yields its processor
// on every publish while a submitted session's stream is still opening, and
// never otherwise — not for a run nobody watches, not for a subscriber that
// keeps up, and not for one whose pending updates pile up (it has been poked;
// when it runs is the scheduler's business, and the lag bound's if it never
// does).
func TestHubPacing(t *testing.T) {
	const never = 0
	cases := []struct {
		name       string
		subscriber bool
		claimEvery int   // the subscriber claims after every n-th publish
		opening    int   // publishes before the stream's first write; -1: all of them
		want       []int // indexes of the publishes that must ask for a yield
	}{
		{"no subscriber", false, never, 0, nil},
		{"subscriber keeps up", true, 1, 0, nil},
		{"subscriber falls behind", true, never, 0, nil},
		{"subscriber claims now and then", true, 3, 0, nil},
		{"stream opening, nobody attached yet", false, never, -1, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"stream opens at its first write", true, 1, 3, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var opening atomic.Int32
			h := newHub(nil, &opening)
			if tc.opening != 0 {
				h.await()
			}
			var sub *subscriber
			if tc.subscriber {
				_, sub = h.subscribe(1 << 15)
			}
			var got []int
			for i := 0; i < 8; i++ {
				if i == tc.opening {
					h.opened()
				}
				if h.publish(update(i)) {
					got = append(got, i)
				}
				if tc.claimEvery > 0 && (i+1)%tc.claimEvery == 0 {
					h.claim(sub, nil)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("yields requested on publishes %v, want %v", got, tc.want)
			}
		})
	}
}

// TestHubSingleWriter races one publisher — the hub's only writer, as the run
// loop is — against subscribers that attach, claim and detach at random, at a
// lag bound that drops nearly everything, one that drops some and one that
// drops nothing. Every subscription sees sequence numbers in order with no
// duplicate; what it misses is exactly what it is told it dropped; and
// sent + dropped == published while it was attached. One subscriber claims
// only when poked and must have everything before the hub closes: no update
// is left waiting for a poke that never comes.
func TestHubSingleWriter(t *testing.T) {
	const total, hoppers = 30000, 4
	for _, lag := range []int{1, 7, 1 << 15} {
		t.Run(fmt.Sprintf("lag=%d", lag), func(t *testing.T) {
			ctr := telemetry.NewRegistry().Counter(telemetry.MetricServeUpdatesDropped)
			h := newHub(ctr, new(atomic.Int32))
			defer h.close() // on a failure too: nobody is left waiting

			// The poked subscriber: bound by nothing, woken by nothing but pokes.
			_, poked := h.subscribe(total)
			caughtUp := make(chan error, 1)
			go func() {
				want := event.EventID(0)
				for want < total {
					select {
					case <-poked.wake:
					case <-time.After(30 * time.Second):
						caughtUp <- fmt.Errorf("poked subscriber stuck at %d of %d: a poke was lost", want, total)
						return
					}
					for _, u := range claimed(h, poked) {
						if u.Event.ID != want {
							caughtUp <- fmt.Errorf("poked subscriber got %d, want %d", u.Event.ID, want)
							return
						}
						want++
					}
				}
				caughtUp <- nil
			}()

			var wg sync.WaitGroup
			var droppedTotal atomic.Int64
			for c := 0; c < hoppers; c++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for closed := false; !closed; {
						backlog, sub := h.subscribe(lag)
						if sub == nil {
							return // the hub closed
						}
						if n := len(backlog); n > 0 { // the history so far: check where it ends, not a copy of it per hop
							if tail := backlog[n-1]; tail[len(tail)-1].Event.ID != event.EventID(sub.start-1) {
								t.Errorf("backlog of %d ends with update %d", sub.start, tail[len(tail)-1].Event.ID)
							}
						}
						// Signed: a subscription made before the first publish
						// starts at 0 and has seen nothing, update -1.
						last, got, missed := int64(sub.start)-1, 0, 0
						take := func() {
							for _, u := range claimed(h, sub) {
								id := int64(u.Event.ID)
								if id <= last {
									t.Errorf("update %d after %d: duplicated or out of order", id, last)
								}
								missed += int(id-last) - 1
								last = id
								got++
							}
						}
						for claims := rng.Intn(40); claims > 0 && !closed; claims-- {
							select {
							case <-sub.wake:
							case <-h.done:
								closed = true
							}
							take()
						}
						take()
						dropped := h.unsubscribe(sub)
						droppedTotal.Add(int64(dropped))
						// Nothing was published between the hub closing and the last
						// claim, so a subscription that saw the end is exact; one
						// that left earlier may have left claimable updates behind.
						end := h.published()
						switch {
						case missed > dropped || got > sub.sent:
							t.Errorf("lag %d: claimed %d and missed %d, accounted %d sent / %d dropped", lag, got, missed, sub.sent, dropped)
						case closed && (got != sub.sent || missed != dropped || sub.sent+dropped != end-sub.start):
							t.Errorf("lag %d: claimed %d, missed %d, %d sent + %d dropped, %d published while attached",
								lag, got, missed, sub.sent, dropped, end-sub.start)
						case lag > total && dropped != 0:
							t.Errorf("lag %d dropped %d", lag, dropped)
						}
					}
				}(int64(lag*100 + c))
			}

			for i := 0; i < total; i++ {
				h.publish(update(i))
				if i%61 == 0 {
					runtime.Gosched() // one core must interleave them too
				}
			}
			if err := <-caughtUp; err != nil {
				t.Fatal(err)
			}
			h.close()
			wg.Wait()
			if d := h.unsubscribe(poked); d != 0 || poked.sent != total {
				t.Fatalf("poked subscriber: %d sent, %d dropped", poked.sent, d)
			}
			if got := ctr.Value(); got != droppedTotal.Load() {
				t.Fatalf("drop counter = %d, subscriptions dropped %d", got, droppedTotal.Load())
			}
		})
	}
}

// TestHubPublishAllocs: between two page boundaries of the history a publish
// allocates nothing, watched or not.
func TestHubPublishAllocs(t *testing.T) {
	for _, subscribers := range []int{0, 1} {
		h := newHub(nil, new(atomic.Int32))
		for i := 0; i < subscribers; i++ {
			h.subscribe(1 << 15)
		}
		i := 0
		// AllocsPerRun's warm-up call is the publish that adds the first page.
		allocs := testing.AllocsPerRun(pages.Len-2, func() {
			h.publish(update(i))
			i++
		})
		if allocs != 0 {
			t.Errorf("%d subscribers: %.1f allocations per publish inside a page", subscribers, allocs)
		}
	}
}

// BenchmarkHubPublish is what the run loop pays per update for delivery: an
// unwatched session, and one whose subscriber claims a page at a time.
func BenchmarkHubPublish(b *testing.B) {
	for _, subscribers := range []int{0, 1} {
		b.Run(fmt.Sprintf("subscribers=%d", subscribers), func(b *testing.B) {
			h := newHub(nil, new(atomic.Int32))
			var sub *subscriber
			if subscribers > 0 {
				_, sub = h.subscribe(1 << 15)
			}
			u := graph.Update{Event: event.Event{ID: 1}, At: time.Unix(1_700_000_000, 0)}
			var views [][]graph.Update
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.publish(u)
				if sub != nil && i%pages.Len == 0 {
					views, _ = h.claim(sub, views[:0])
				}
			}
		})
	}
}
