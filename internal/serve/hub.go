package serve

import (
	"slices"
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
// loop to park). It is also the hub's only writer, so publish takes no lock:
// it writes the next slot of the append-only history, stores the new length
// and reads each subscriber's cursor. A subscriber is that cursor plus a
// one-slot wake channel: O(1) memory, nothing copied or buffered. The history
// grows a page at a time (the one step publish locks for: readers walk the
// page table) and is never copied, so a subscriber is handed views of it, one
// slice per page its updates lie on.
//
// Delivery contract: a live update is on the wire within the scheduler's
// preemption quantum (10 ms) of its publication, or the subscriber is lagging.
// The update that finds a cursor at the live edge opens a burst — one poke —
// and those behind it ride along in the handler's next claim: at once on an
// idle processor, at the next preemption of a run on a saturated daemon, which
// therefore writes hundreds of updates per write(2). Yielding every few
// updates bought smaller writes and nothing else, and yielding by the age of
// the pending updates measured the same as not (EXPERIMENTS.md, "Served runs").
//
// A subscriber attaches at the live edge: subscribe hands it the history so
// far as its backlog (always complete) and claim everything published since
// its last claim. The lag bound is the one drop policy: a subscriber more than
// lag updates behind the newest skips forward over the oldest unclaimed ones,
// which count as dropped for it (and in aptrace_serve_updates_dropped_total),
// when someone looks (claim, stats, unsubscribe). Every update published while
// it is attached is sent to it — claimed, or still claimable — or dropped.
type hub struct {
	dropped *telemetry.Counter // shared slow-consumer drop counter
	// opening counts, daemon-wide, the submitted sessions whose stream has
	// not had its first write yet; waiting says this one is among them.
	opening *atomic.Int32
	waiting atomic.Bool
	// awaited is set by await, before the run starts, and read and cleared by
	// the run goroutine alone (Manager.execute's first nap, justOpened).
	awaited bool

	n    atomic.Int64                  // updates published; slots below it never change or move
	subs atomic.Pointer[[]*subscriber] // attached, in attach order; replaced, never edited

	// mu guards the history's page table, the subscriber set and every
	// subscriber's cursor and accounting; the publisher takes it to add a page.
	mu      sync.Mutex
	history pages.Pages[graph.Update]
	nextSub int // subscriber ID sequence (first subscriber is 1)
	closed  bool
	done    chan struct{} // closed exactly once, when the session finishes
}

// subscriber is one attached update consumer.
type subscriber struct {
	id    int           // stable per-hub subscriber number (for /ops and done frames)
	wake  chan struct{} // one slot: "there is something to claim"
	lag   int           // most updates it may trail the newest by
	start int           // updates published before it attached: its backlog
	// next is the history index of the first unclaimed update: moved under
	// hub.mu, read by the publisher to tell a subscriber that has caught up.
	next atomic.Int64
	// stamp is the wall time (Unix ns) the oldest unclaimed update was
	// published at, for the handler's publish-to-flush SLI: set by the
	// publisher when an update opens a burst, zeroed by the claim that takes it.
	stamp atomic.Int64

	// Accounting as of the last claim, stats or unsubscribe, under hub.mu.
	sent    int // updates claimed or still claimable
	dropped int // updates skipped because it trailed by more than lag
}

// subStat is one subscriber's delivery accounting, as exposed by /ops and
// the SSE done frame.
type subStat struct {
	ID      int `json:"id"`
	Sent    int `json:"sent"`
	Dropped int `json:"dropped"`
}

func newHub(dropped *telemetry.Counter, opening *atomic.Int32) *hub {
	h := &hub{dropped: dropped, opening: opening, done: make(chan struct{})}
	h.subs.Store(new([]*subscriber))
	return h
}

// publish appends the update and pokes the subscribers it finds caught up; it
// never blocks. It reports whether the run should now yield its processor:
// every update of every run does while a submitted session waits for its stream
// to open (hub.opening) — the analyst's time to first update, and a short one.
func (h *hub) publish(u graph.Update) (yield bool) {
	i := int(h.n.Load())
	if i%pages.Len == 0 {
		h.mu.Lock()
		h.history.At(i)
		h.mu.Unlock()
	}
	*h.history.Get(i) = u
	h.n.Store(int64(i + 1))
	var now int64
	for _, s := range *h.subs.Load() {
		if int(s.next.Load()) == i { // caught up: u opens a burst
			if now == 0 {
				now = time.Now().UnixNano()
			}
			s.stamp.Store(now)
			s.poke()
		}
	}
	return h.opening.Load() > 0
}

// poke tells the subscriber there is something to claim; it never blocks.
func (s *subscriber) poke() {
	select {
	case s.wake <- struct{}{}:
	default: // a poke it has not taken yet: one claim takes everything pending
	}
}

// subscribe returns the history so far — views of the append-only log, one
// per page, not a copy — plus a subscriber registered at the live edge, so
// backlog and claims together never miss or duplicate an update. lag (at
// least 1) is how far it may fall behind before it skips. After the hub has
// closed the backlog is the complete history and sub is nil.
func (h *hub) subscribe(lag int) (backlog [][]graph.Update, sub *subscriber) {
	if lag < 1 {
		lag = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := int(h.n.Load())
	backlog = h.history.Span(nil, 0, n)
	if h.closed {
		return backlog, nil
	}
	h.nextSub++
	sub = &subscriber{id: h.nextSub, wake: make(chan struct{}, 1), lag: lag, start: n}
	sub.next.Store(int64(n))
	subs := append(slices.Clone(*h.subs.Load()), sub)
	h.subs.Store(&subs)
	if int(h.n.Load()) > n {
		// Published while sub was being listed: the publisher may have looked
		// before it was there, and nothing later would open its burst.
		sub.poke()
	}
	return backlog, sub
}

// reach applies the lag bound as of end published updates, brings sub's
// accounting up to end and returns where what it may still be handed starts.
// Caller holds h.mu.
func (h *hub) reach(sub *subscriber, end int) (from int) {
	from = int(sub.next.Load())
	if over := end - from - sub.lag; over > 0 {
		from += over
		sub.next.Store(int64(from))
		sub.dropped += over
		h.dropped.Add(int64(over))
	}
	sub.sent = end - sub.start - sub.dropped
	return from
}

// claim takes every update published since sub's previous claim (or since it
// attached), again as views of the log, appended to buf, and the wall time
// the oldest of them was published at — zero when sub took it before the
// publisher had stamped it. An empty claim is normal: a poke can outlive the
// updates it announced. claim returns only once it has seen nothing published
// past what it took: the publisher pokes for the update that finds the cursor
// at the live edge, so either it sees the cursor there or claim sees its update.
func (h *hub) claim(sub *subscriber, buf [][]graph.Update) (batch [][]graph.Update, oldest time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if at := sub.stamp.Load(); at != 0 {
		oldest = time.Unix(0, at)
	}
	for batch = buf; ; {
		end := int(h.n.Load())
		from := h.reach(sub, end)
		if from == end {
			return batch, oldest
		}
		batch = h.history.Span(batch, from, end)
		sub.stamp.Store(0) // before the cursor moves: a stamp that survives is the next burst's
		sub.next.Store(int64(end))
	}
}

// published is how many updates the session has produced so far.
func (h *hub) published() int { return int(h.n.Load()) }

// stats snapshots every attached subscriber's delivery accounting, oldest
// subscription first; a detached one's drops are in the shared counter.
func (h *hub) stats() []subStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	subs, end := *h.subs.Load(), int(h.n.Load())
	out := make([]subStat, 0, len(subs))
	for _, s := range subs {
		h.reach(s, end)
		out = append(out, subStat{ID: s.id, Sent: s.sent, Dropped: s.dropped})
	}
	return out
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
	if subs := *h.subs.Load(); slices.Contains(subs, sub) {
		h.reach(sub, int(h.n.Load()))
		subs = slices.DeleteFunc(slices.Clone(subs), func(s *subscriber) bool { return s == sub })
		h.subs.Store(&subs)
	}
	return sub.dropped
}

// await marks the session as waiting for its stream to open: a client has
// submitted it and will attach. opened ends the wait — at the stream's first
// write, or when the session ends without one.
func (h *hub) await() {
	if h.waiting.CompareAndSwap(false, true) {
		h.awaited = true
		h.opening.Add(1)
	}
}

// justOpened reports, once, that this run's own awaited stream has had its
// first write. The reader of that frame is parked on the network, and a
// saturated runtime polls the network only when a processor goes idle, so the
// run then sleeps once to leave its processor idle. Run goroutine only.
func (h *hub) justOpened() bool {
	if !h.awaited || h.waiting.Load() {
		return false
	}
	h.awaited = false
	return true
}

func (h *hub) opened() {
	if h.waiting.CompareAndSwap(true, false) {
		h.opening.Add(-1)
	}
}

// close marks the stream complete and wakes every subscriber (the done
// channel). Updates not yet claimed stay claimable.
func (h *hub) close() {
	h.opened()
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		close(h.done)
	}
	h.mu.Unlock()
}
