package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aptrace/internal/graph"
	"aptrace/internal/pages"
	"aptrace/internal/telemetry"
)

// DefaultSubscriberBuffer is the default Config.SubscriberBuffer: more frames
// than the heaviest run of the repository's benchmark publishes, so a
// default daemon drops only for a client that has stopped reading.
const DefaultSubscriberBuffer = 1 << 16

// hub fans one session's graph updates out to any number of subscribers.
//
// The publisher is the executor's OnUpdate hook, which runs synchronously
// inside the analysis loop — it must NEVER block, or a slow SSE consumer
// would stall the analysis and deadlock Pause/Stop (which wait for the run
// loop to park). So publish only appends to the session's history and pokes:
// a subscriber is a cursor into that append-only history plus a one-slot
// wake channel, and costs the publisher a comparison and a non-blocking send.
// Nothing is copied or buffered per subscriber; its memory is O(1). The
// history grows a page at a time and is never copied either, so what a
// subscriber is handed is views of it: one slice per page its updates lie on.
//
// A subscriber attaches at the live edge: subscribe hands it the history so
// far as its backlog (always complete, never subject to the bound below) and
// claim hands it everything published since its last claim. The lag bound is
// the one delivery policy: a subscriber more than lag frames behind the
// newest update skips forward over the oldest unclaimed ones, which count as
// dropped for it (and in aptrace_serve_updates_dropped_total). Every update
// published while a subscriber is attached is therefore either sent to it —
// claimed, or still claimable — or dropped: sent + dropped == published.
type hub struct {
	dropped *telemetry.Counter // shared slow-consumer drop counter
	// opening counts, daemon-wide, the submitted sessions whose stream has
	// not had its first write yet; waiting says this one is among them.
	opening *atomic.Int32
	waiting atomic.Bool

	mu      sync.Mutex
	history pages.Pages[graph.Update] // append-only: updates below n never change or move
	n       int
	subs    map[*subscriber]struct{}
	nextSub int // subscriber ID sequence (first subscriber is 1)
	closed  bool
	done    chan struct{} // closed exactly once, when the session finishes
}

// subscriber is one attached update consumer. All fields but wake are
// guarded by hub.mu.
type subscriber struct {
	id      int           // stable per-hub subscriber number (for /ops and done frames)
	wake    chan struct{} // one slot: "there is something to claim"
	next    int           // history index of the first unclaimed update
	lag     int           // most updates it may trail the newest by
	sent    int           // updates claimed or still claimable
	dropped int           // updates skipped because it trailed by more than lag
	// oldest is the wall time the oldest unclaimed update was published at,
	// so the SSE writer can measure publish-to-flush latency once per
	// wake-up without the publisher stamping every update.
	oldest time.Time
}

// subStat is one subscriber's delivery accounting, as exposed by /ops and
// the SSE done frame.
type subStat struct {
	ID      int `json:"id"`
	Sent    int `json:"sent"`
	Dropped int `json:"dropped"`
}

func newHub(dropped *telemetry.Counter, opening *atomic.Int32) *hub {
	return &hub{
		dropped: dropped,
		opening: opening,
		subs:    make(map[*subscriber]struct{}),
		done:    make(chan struct{}),
	}
}

// yieldEvery is how many updates a run publishes between two yields of its
// processor. The run loop is CPU-bound and shares no lock with another run,
// so on a daemon with as many workers as cores nothing else — a stream
// handler publish has poked, a connection with a request to read — would be
// scheduled before the runtime preempts it, 10 ms later (the per-record
// recorder locks used to let them in several thousand times a second, by
// contention). A yield lets the handler write what has accumulated, so the
// interval is also the batch: on the benchmark's two-core box every 8th frame
// keeps the streams fed for a few percent of throughput, every 2nd cost a
// third of it in writes of a frame or two. While a submitted session is still
// waiting for its stream to open (hub.opening) every frame of every run
// yields: that wait is the analyst's time to first update, and it is short.
const yieldEvery = 8

// publish appends the update and pokes every subscriber; it never blocks. A
// subscriber that now trails by more than its bound loses its oldest
// unclaimed update.
func (h *hub) publish(u graph.Update) {
	h.mu.Lock()
	*h.history.At(h.n) = u
	h.n++
	n := h.n
	var now time.Time
	for s := range h.subs {
		if n-s.next > s.lag {
			s.next++
			s.dropped++
			h.dropped.Inc()
		} else {
			s.sent++
		}
		if n-s.next == 1 {
			if now.IsZero() {
				now = time.Now()
			}
			s.oldest = now
		}
		select {
		case s.wake <- struct{}{}:
		default: // already poked: one claim takes everything pending
		}
	}
	h.mu.Unlock()
	if n%yieldEvery == 0 || h.opening.Load() > 0 {
		runtime.Gosched()
	}
}

// subscribe returns the history so far — views of the append-only log, one
// per page, not a copy — plus a subscriber registered at the live edge, so
// backlog and claims together never miss or duplicate an update. lag (at
// least 1) is how many updates the subscriber may fall behind before it
// skips. After the hub has closed the backlog is the complete history and sub
// is nil.
func (h *hub) subscribe(lag int) (backlog [][]graph.Update, sub *subscriber) {
	if lag < 1 {
		lag = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	backlog = h.history.Span(nil, 0, h.n)
	if h.closed {
		return backlog, nil
	}
	h.nextSub++
	sub = &subscriber{id: h.nextSub, wake: make(chan struct{}, 1), next: h.n, lag: lag}
	h.subs[sub] = struct{}{}
	return backlog, sub
}

// claim takes every update published since sub's previous claim (or since it
// attached), again as views of the log, appended to buf, and the wall time
// the oldest of them was published at. An empty claim is normal: a poke can
// outlive the updates it announced.
func (h *hub) claim(sub *subscriber, buf [][]graph.Update) (batch [][]graph.Update, oldest time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	batch = h.history.Span(buf, sub.next, h.n)
	sub.next = h.n
	return batch, sub.oldest
}

// published is how many updates the session has produced so far.
func (h *hub) published() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// stats snapshots every attached subscriber's delivery accounting, oldest
// subscription first. Detached subscribers are not reported — their drop
// totals already landed in the shared counter.
func (h *hub) stats() []subStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]subStat, 0, len(h.subs))
	for s := range h.subs {
		out = append(out, subStat{ID: s.id, Sent: s.sent, Dropped: s.dropped})
	}
	sortSubStats(out)
	return out
}

// sortSubStats orders by subscriber ID (insertion sort; the set is tiny).
func sortSubStats(s []subStat) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j-1].ID > s[j].ID; j-- {
			s[j-1], s[j] = s[j], s[j-1]
		}
	}
}

// unsubscribe detaches sub and returns how many updates it lost to the lag
// bound. Safe to call with nil or an already-removed subscriber; after it
// returns the hub no longer touches sub, so its counters are stable.
func (h *hub) unsubscribe(sub *subscriber) int {
	if sub == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
	return sub.dropped
}

// close marks the stream complete and wakes every subscriber (the done
// channel). Updates not yet claimed stay claimable.
// await marks the session as waiting for its stream to open: a client has
// submitted it and will attach. opened ends the wait — at the stream's first
// write, or when the session ends without one.
func (h *hub) await() {
	if h.waiting.CompareAndSwap(false, true) {
		h.opening.Add(1)
	}
}

func (h *hub) opened() {
	if h.waiting.CompareAndSwap(true, false) {
		h.opening.Add(-1)
	}
}

func (h *hub) close() {
	h.opened()
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.done)
	}
	h.mu.Unlock()
}
