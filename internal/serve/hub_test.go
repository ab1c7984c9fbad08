package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// gatedRun starts a daemon whose single worker holds the submitted run just
// before execution: the run's hub is live, and the test is its only
// publisher until it closes g.release.
func gatedRun(t *testing.T, cfg Config) (*Server, *Run, *gate) {
	t.Helper()
	ds := dataset(t)
	g := newGate()
	cfg.Source, cfg.Workers, cfg.ViewClock = StaticSource(ds.Store), 1, g.clock
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	run, err := srv.Manager().Submit("analyst", atk.Scripts[0], &alert, false, "")
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered
	return srv, run, g
}

// TestHubStreamOpeningCount: a submitted session counts as opening from
// await until its stream's first write or its end, whichever comes first, and
// exactly once — the count every run's publish consults must return to zero.
func TestHubStreamOpeningCount(t *testing.T) {
	var opening atomic.Int32
	streamed, silent := newHub(nil, &opening), newHub(nil, &opening)
	streamed.await()
	streamed.await()
	silent.await()
	if got := opening.Load(); got != 2 {
		t.Fatalf("two sessions waiting: opening = %d", got)
	}
	streamed.opened() // the handler's first write
	streamed.opened() // and its second
	if got := opening.Load(); got != 1 {
		t.Fatalf("one stream open: opening = %d", got)
	}
	streamed.close()
	silent.close() // ended before anyone attached
	if got := opening.Load(); got != 0 {
		t.Fatalf("both sessions over: opening = %d", got)
	}
}

// TestHubJustOpened: a run naps once, after its own awaited stream's first
// write — never while the stream is still waiting, never twice, and never for
// a session nobody awaited (an auto-run).
func TestHubJustOpened(t *testing.T) {
	var opening atomic.Int32
	awaited, auto := newHub(nil, &opening), newHub(nil, &opening)
	awaited.await()
	if awaited.justOpened() {
		t.Fatal("nap while the stream is still waiting")
	}
	awaited.opened()
	if !awaited.justOpened() || awaited.justOpened() {
		t.Fatal("want exactly one nap after the first write")
	}
	auto.opened()
	if auto.justOpened() {
		t.Fatal("nap for a session nobody awaited")
	}
}

// TestHubPublishNeverBlocks: a subscriber that never claims costs the
// publisher nothing but its accounting, and a claimer racing the publisher
// within its lag bound sees every update exactly once, in order.
func TestHubPublishNeverBlocks(t *testing.T) {
	const n = 20000
	h := newHub(telemetry.NewRegistry().Counter(telemetry.MetricServeUpdatesDropped), new(atomic.Int32))
	_, deaf := h.subscribe(4)
	_, reader := h.subscribe(n)

	read := make(chan []event.EventID)
	go func() {
		var ids []event.EventID
		for {
			select {
			case <-reader.wake:
			case <-h.done:
				for _, u := range claimed(h, reader) {
					ids = append(ids, u.Event.ID)
				}
				read <- ids
				return
			}
			for _, u := range claimed(h, reader) {
				ids = append(ids, u.Event.ID)
			}
		}
	}()

	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < n; i++ {
			h.publish(update(i))
		}
	}()
	select {
	case <-published:
	case <-time.After(30 * time.Second):
		t.Fatal("publish blocked on a subscriber that never reads")
	}
	h.close()

	ids := <-read
	if len(ids) != n {
		t.Fatalf("reader within its bound got %d of %d updates", len(ids), n)
	}
	for i, id := range ids {
		if id != event.EventID(i) {
			t.Fatalf("update %d has ID %d: out of order, duplicated or skipped", i, id)
		}
	}
	for _, st := range h.stats() {
		if st.Sent+st.Dropped != n {
			t.Errorf("subscriber %d: %d sent + %d dropped != %d published", st.ID, st.Sent, st.Dropped, n)
		}
		if st.ID == deaf.id && (st.Sent != 4 || st.Dropped != n-4) {
			t.Errorf("deaf subscriber = %+v, want its bound of 4 sent and the rest dropped", st)
		}
		if st.ID == reader.id && st.Dropped != 0 {
			t.Errorf("reader within its bound dropped %d", st.Dropped)
		}
	}
}

// TestSSEAttachAnywhereContiguous attaches stream clients at random points
// of a live publication — before it, in the middle of it, after it — and
// holds each to the same stream: every update of the session exactly once,
// in order, numbered 1..N, then "done" with nothing dropped. Backlog replay,
// live claims and the final drain must join without a seam.
func TestSSEAttachAnywhereContiguous(t *testing.T) {
	const synthetic, clients = 4000, 9
	srv, run, g := gatedRun(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rng := rand.New(rand.NewSource(14))
	// One before the first update, one after the last, and around the history's
	// first page boundary.
	attachAt := []int{0, synthetic, pages.Len - 1, pages.Len, pages.Len + 1}
	for len(attachAt) < clients {
		attachAt = append(attachAt, rng.Intn(synthetic))
	}
	type result struct {
		at     int
		frames []sseFrame
	}
	results := make(chan result, clients)
	var attached sync.WaitGroup
	for _, at := range attachAt {
		attached.Add(1)
		go func(at int) {
			for run.hub.published() < at {
				runtime.Gosched()
			}
			resp, err := http.Get(ts.URL + "/api/v1/sessions/" + run.ID + "/updates")
			attached.Done()
			if err != nil {
				t.Error(err)
				results <- result{at: at}
				return
			}
			defer resp.Body.Close()
			results <- result{at, readSSE(t, bufio.NewReader(resp.Body), 0)}
		}(at)
	}
	for i := 0; i < synthetic; i++ {
		run.hub.publish(update(i))
		if i%64 == 0 {
			runtime.Gosched() // let attachers in
		}
	}
	attached.Wait()
	close(g.release) // the real run appends its own updates, then finishes
	sum := run.Wait()
	if sum.State != "done" || sum.Updates <= synthetic {
		t.Fatalf("run = %+v", sum)
	}
	views, _ := run.hub.subscribe(1) // closed: the complete log
	history := flat(views)

	for i := 0; i < clients; i++ {
		res := <-results
		if len(res.frames) != sum.Updates+1 {
			t.Errorf("client attached at %d: %d frames, want %d updates + done", res.at, len(res.frames), sum.Updates)
			continue
		}
		for j, f := range res.frames[:sum.Updates] {
			var upd updateEvent
			if err := json.Unmarshal([]byte(f.data), &upd); err != nil || f.event != "update" {
				t.Fatalf("client attached at %d, frame %d: %q %v", res.at, j, f.event, err)
			}
			if upd.Seq != j+1 || upd.EventID != uint64(history[j].Event.ID) {
				t.Fatalf("client attached at %d, frame %d: seq %d event %d, want seq %d event %d",
					res.at, j, upd.Seq, upd.EventID, j+1, history[j].Event.ID)
			}
		}
		var done doneEvent
		last := res.frames[sum.Updates]
		if err := json.Unmarshal([]byte(last.data), &done); err != nil || last.event != "done" {
			t.Fatalf("client attached at %d: last frame %q %v", res.at, last.event, err)
		}
		if done.DroppedUpdates != 0 {
			t.Errorf("client attached at %d dropped %d updates within the default bound", res.at, done.DroppedUpdates)
		}
	}
}

// stepWriter is a ResponseWriter that counts the handler's Write and Flush
// calls, keeps each Write's bytes apart, and parks the handler inside a
// Write for as long as the test holds a token back.
type stepWriter struct {
	header  http.Header
	entered chan struct{} // the handler is inside a Write, waiting for its token
	tokens  chan struct{} // one token admits one Write

	mu      sync.Mutex
	writes  [][]byte
	flushes int
	wrote   chan int // after every Write: how many there have been
}

func (w *stepWriter) Header() http.Header { return w.header }
func (w *stepWriter) WriteHeader(int)     {}
func (w *stepWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.tokens
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	n := len(w.writes)
	w.mu.Unlock()
	w.wrote <- n
	return len(p), nil
}
func (w *stepWriter) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
}

// TestSSEPendingUpdatesShareOneWrite pins the per-wake-up cost of the stream
// handler: however many updates are pending when it wakes — a backlog at
// attach, or live updates published while it was busy writing — it hands
// them to the client in one Write and one Flush, numbered on from where it
// left off, and a reader that lags within its bound loses none of them.
func TestSSEPendingUpdatesShareOneWrite(t *testing.T) {
	const backlog, burst = 100, 150
	srv, run, g := gatedRun(t, Config{})
	for i := 0; i < backlog; i++ {
		run.hub.publish(update(i))
	}

	w := &stepWriter{header: http.Header{}, entered: make(chan struct{}, 8), tokens: make(chan struct{}, 8), wrote: make(chan int, 8)}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/api/v1/sessions/"+run.ID+"/updates", nil).WithContext(ctx)
	req.SetPathValue("id", run.ID)
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		srv.handleUpdates(w, req)
	}()
	await := func(n int) {
		t.Helper()
		select {
		case got := <-w.wrote:
			if got != n {
				t.Fatalf("write %d arrived, want write %d", got, n)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("write %d never arrived", n)
		}
	}

	<-w.entered
	w.tokens <- struct{}{}
	await(1) // the whole backlog

	// One live update wakes the handler; it parks inside the Write (no token)
	// while the burst is published behind its back.
	run.hub.publish(update(backlog))
	<-w.entered
	for i := 1; i <= burst; i++ {
		run.hub.publish(update(backlog + i))
	}
	w.tokens <- struct{}{}
	await(2) // the single live update
	<-w.entered
	w.tokens <- struct{}{}
	await(3) // the whole burst

	stats := run.hub.stats()
	if len(stats) != 1 || stats[0].Sent != 1+burst || stats[0].Dropped != 0 {
		t.Fatalf("subscriber accounting = %+v, want %d sent / 0 dropped", stats, 1+burst)
	}
	cancel()
	<-handlerDone
	close(g.release)
	run.Wait()

	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.writes) != 3 || w.flushes != 3 {
		t.Fatalf("%d writes and %d flushes, want 3 and 3", len(w.writes), w.flushes)
	}
	seq := 0
	for i, want := range []int{backlog, 1, burst} {
		frames := readSSE(t, bufio.NewReader(bytes.NewReader(w.writes[i])), 0)
		if len(frames) != want {
			t.Fatalf("write %d carries %d frames, want %d", i+1, len(frames), want)
		}
		for _, f := range frames {
			var upd updateEvent
			if err := json.Unmarshal([]byte(f.data), &upd); err != nil {
				t.Fatal(err)
			}
			if seq++; upd.Seq != seq || upd.EventID != uint64(seq-1) {
				t.Fatalf("frame %d: seq %d event %d", seq, upd.Seq, upd.EventID)
			}
		}
	}
}

// TestHubPagedHistory attaches subscribers before the first update, inside a
// page of the history, on either side of a page boundary and after close, and
// holds each to the whole history in order: its backlog, then its claims, as
// views that never span a page, never grow under a later publish and never
// move — the first page a subscriber was shown is the page every later one is.
func TestHubPagedHistory(t *testing.T) {
	const total = 2*pages.Len + 10
	attachAt := []int{0, pages.Len / 2, pages.Len - 1, pages.Len, pages.Len + 1, total}
	h := newHub(nil, new(atomic.Int32))
	type client struct {
		at    int
		sub   *subscriber
		views [][]graph.Update // backlog as handed out
		got   []graph.Update
	}
	var clients []*client
	attach := func(at int) {
		views, sub := h.subscribe(total)
		c := &client{at: at, sub: sub, views: views, got: flat(views)}
		if len(c.got) != at {
			t.Fatalf("attached at %d: backlog of %d", at, len(c.got))
		}
		clients = append(clients, c)
	}
	for i := 0; i <= total; i++ {
		for _, at := range attachAt[:len(attachAt)-1] {
			if at == i {
				attach(at)
			}
		}
		if i == total {
			break
		}
		h.publish(update(i))
		if i%97 == 0 { // claims of every size, some crossing a page boundary
			for _, c := range clients {
				views, _ := h.claim(c.sub, nil)
				for _, v := range views {
					if len(v) == 0 || len(v) > pages.Len || cap(v) != len(v) {
						t.Fatalf("attached at %d: claimed a view of len %d cap %d", c.at, len(v), cap(v))
					}
				}
				c.got = append(c.got, flat(views)...)
			}
		}
	}
	h.close()
	attach(total) // after close: the complete history, no cursor
	if last := clients[len(clients)-1]; last.sub != nil {
		t.Fatal("subscribing after close must not register a cursor")
	}
	first := &clients[len(clients)-1].views[0][0]
	for _, c := range clients {
		if c.sub != nil {
			c.got = append(c.got, claimed(h, c.sub)...)
		}
		if len(c.got) != total {
			t.Fatalf("attached at %d: %d of %d updates", c.at, len(c.got), total)
		}
		for i, u := range c.got {
			if u.Event.ID != event.EventID(i) {
				t.Fatalf("attached at %d: update %d has ID %d", c.at, i, u.Event.ID)
			}
		}
		if n := len(flat(c.views)); n != c.at {
			t.Errorf("attached at %d: backlog views now hold %d", c.at, n)
		}
		if len(c.views) > 0 && &c.views[0][0] != first {
			t.Errorf("attached at %d: the history's first page moved", c.at)
		}
	}
}
