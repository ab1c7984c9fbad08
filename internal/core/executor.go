package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/graph"
	"aptrace/internal/maintainer"
	"aptrace/internal/memo"
	"aptrace/internal/pages"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// DefaultWindows is the default window count k; the paper's blue team used
// the empirical value eight.
const DefaultWindows = 8

// StopReason says why a run ended.
type StopReason uint8

const (
	// Completed: the priority queue drained; the dependency graph is full.
	Completed StopReason = iota
	// TimeBudgetExceeded: the BDL "time <= d" budget expired.
	TimeBudgetExceeded
	// Stopped: the analyst stopped the run (found what they needed).
	Stopped
)

// String names the stop reason.
func (r StopReason) String() string {
	switch r {
	case Completed:
		return "completed"
	case TimeBudgetExceeded:
		return "time budget exceeded"
	default:
		return "stopped by analyst"
	}
}

// Update is one responsive progress report: an edge just landed in the
// dependency graph. It is an alias of graph.Update, shared with the
// King-Chen baseline so harnesses can treat both engines uniformly.
type Update = graph.Update

// Result summarizes a finished (or stopped) run.
type Result struct {
	Graph   *graph.Graph
	Reason  StopReason
	Updates int
	Elapsed time.Duration
	Windows int // execution windows processed
}

// Options configure an Executor.
type Options struct {
	// Windows is the window count k (DefaultWindows if zero).
	Windows int
	// OnUpdate, if set, is invoked synchronously for every graph update.
	OnUpdate func(Update)
	// UniformWindows disables the geometric length sequence and cuts each
	// search range into k equal windows instead (ablation A2).
	UniformWindows bool
	// FIFOQueue disables the priority ordering and explores windows in
	// insertion order (ablation A2).
	FIFOQueue bool
	// NoSplit disables re-splitting windows over DefaultMaxWindowRows
	// (ablation A2).
	NoSplit bool
	// Telemetry, if set, publishes executor metrics (queue depth,
	// windows executed, re-splits, inter-update gap histogram) to the
	// registry. Nil disables publication at near-zero cost.
	Telemetry *telemetry.Registry
	// Explain, if set, is the run's log: it receives a decision record for
	// every per-edge verdict and scheduling choice the executor makes, with
	// the store's charged cost on every window query, and everything that
	// reads a run back reads it — the EXPLAIN query layer, and, once the log
	// is bound as a lane (explain.Recorder.Bind), the Chrome trace and the
	// SLO watchdog over the inter-update gap. Nil disables recording at the
	// cost of one pointer test per emission site.
	Explain *explain.Recorder
	// Memo, if set, is a shared cross-alert attribute-verdict cache: the
	// computed attributes where filters and chain matchers evaluate
	// (read-only, write-through, file times) are served from it when
	// another run over the same sealed content already computed them. A
	// hit replays the identical charged cost (rows + latency on the
	// analysis clock), so results, stats deltas, and all experiment output
	// are byte-identical with the cache on or off — only real CPU changes.
	// Window queries always go to the store. Nil disables caching.
	Memo *memo.Cache
}

// DefaultMaxWindowRows caps how many index rows a single window query may
// retrieve: a window whose cardinality estimate exceeds the cap is re-split
// (ratio 2, nearest-first) before being queried, so no single retrieval can
// block the update stream — the engineering realization of the paper's
// "retrieve the dependents in many smaller batches". At the calibrated cost
// model (~0.4 s per retrieved row) eight rows keep every single retrieval —
// and therefore every inter-update gap — in the seconds range the paper
// reports for APTrace.
const DefaultMaxWindowRows = 8

// Executor runs responsive backtracking analysis over a sealed store.
// One Executor handles one analysis; create a new one to restart.
type Executor struct {
	st   *store.Store
	clk  simclock.Clock
	opts Options
	// env is what charged evaluations (where filters, prioritize rules,
	// maintainer flow queries, start matching) run against: the memo view
	// when Options.Memo is set, the store itself otherwise.
	env refiner.Env
	mv  *memo.View // non-nil iff Options.Memo is set

	mu      sync.Mutex
	cond    *sync.Cond
	paused  bool
	stop    bool
	running bool  // the run loop is active
	parked  bool  // the run loop is waiting out a pause
	runGoid int64 // goroutine running the loop, 0 when not running

	plan  *refiner.Plan
	maint *maintainer.Maintainer
	g     *graph.Graph

	from, to int64 // resolved analysis range
	started  time.Time
	budget   time.Duration

	fwd bool // forward (impact) tracking, from the plan
	pq  windowHeap
	// covered is the run's state per graph node, addressed by node slot: the
	// latest (earliest, forward) time scheduled for the object, once any is.
	covered pages.Pages[coverage]
	// dropped are the objects rejected by the where filter — mostly not nodes,
	// so keyed by ID; no plan without a filter ever puts one in.
	dropped map[event.ObjID]bool
	depsBuf []event.Event // window-query buffer, reused across processWindow calls
	winBuf  []ExecWindow  // window-generation buffer, reused across enqueue calls

	updates  int
	windows  int
	prepared bool
	alert    event.Event

	tel execMetrics
	rec *explain.Recorder

	// Everything the run loop has to say — decisions and the window
	// lifecycle — is one record per emission site appended to stage, and
	// flush hands the stage to the log in one call. recording says whether a
	// log or a registry is attached; without one the sites cost a bool test
	// (a pointer test where only EXPLAIN reads the record).
	stage     explain.Stage
	recording bool
	watch     explain.Watch // feeds the gap histogram when there is no log to

	// The run loop's stamp of the analysis clock (see at) and, for the
	// stage, its distance from started. Run goroutine only: records made on
	// other goroutines read the clock themselves.
	now   time.Time
	nowNs int64
	stale bool // a call that can move analysis time returned since now was read
	// staging says the run loop is inside a window, outside OnUpdate: the
	// memo view's verdicts go into the stage (stageVerdict), not to the log.
	staging bool
}

// coverage is how far an object's history has been scheduled.
type coverage struct {
	until int64
	any   bool
}

// execMetrics holds the executor's pre-resolved instruments; all nil (and
// therefore no-ops) when telemetry is disabled.
type execMetrics struct {
	queueDepth *telemetry.Gauge
	windows    *telemetry.Counter
	resplits   *telemetry.Counter
	updateGap  *telemetry.Histogram
}

func newExecMetrics(reg *telemetry.Registry) execMetrics {
	return execMetrics{
		queueDepth: reg.Gauge(telemetry.MetricExecQueueDepth),
		windows:    reg.Counter(telemetry.MetricExecWindows),
		resplits:   reg.Counter(telemetry.MetricExecResplits),
		updateGap:  reg.Histogram(telemetry.MetricExecUpdateGap, telemetry.GapBuckets),
	}
}

// New prepares an executor for the given plan over st. The store must be
// sealed.
func New(st *store.Store, plan *refiner.Plan, opts Options) (*Executor, error) {
	if !st.Sealed() {
		return nil, store.ErrNotSealed
	}
	if opts.Windows <= 0 {
		opts.Windows = DefaultWindows
	}
	if opts.Windows > MaxWindows {
		opts.Windows = MaxWindows
	}
	x := &Executor{st: st, clk: st.Clock(), opts: opts, plan: plan}
	x.tel = newExecMetrics(opts.Telemetry)
	x.rec = opts.Explain
	x.env = st
	if opts.Memo != nil {
		if err := x.bindMemo(plan); err != nil {
			return nil, err
		}
	}
	x.watch.Gaps = x.tel.updateGap
	x.rec.Attach(st.Clock(), x.tel.updateGap)
	if x.rec != nil {
		// Per-window cost attribution: the store reports every charged
		// query's buckets and cost to the stage, and the window-queried record
		// that follows claims them. The store (usually a per-run view) is
		// private to this run, so the observer never crosses runs.
		st.SetCostObserver(func(_, buckets int64, cost time.Duration) { x.stage.Charge(buckets, cost) })
	}
	x.recording = x.rec != nil || opts.Telemetry != nil
	x.cond = sync.NewCond(&x.mu)
	return x, nil
}

// goid returns the current goroutine's ID by parsing the "goroutine N ["
// header of a stack dump. The run loop records its own ID so Pause and
// UpdatePlan can tell a reentrant call (from an OnUpdate callback on the
// run goroutine, where blocking would self-deadlock) from a concurrent one.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// at is the run loop's reading of the analysis clock. Every record a run
// emits (explain records, the trace's events, Update.At) is timed with it,
// and it re-reads the clock only after a call that can move analysis time:
// the charging calls — the window query, the where filter, the maintainer's
// chain matchers, a plan swapped in from OnUpdate — and the pause park, each
// of which marks the stamp stale. Under the cost model a stamp therefore
// always equals what the clock would say; on a real clock the records and
// updates between two charging calls share one instant, and a window's worth
// of records costs a couple of clock reads instead of one each. Emission
// sites call it behind the recording check, so a run nobody records reads
// the clock for Update.At alone, once per retrieval that adds an edge.
func (x *Executor) at() time.Time {
	if x.stale {
		x.now, x.stale = x.clk.Now(), false
		if x.recording {
			x.nowNs = int64(x.now.Sub(x.started))
		}
	}
	return x.now
}

// note stages one record of the given kind at the run loop's stamp and
// returns it for the emission site to fill in. Sites call it behind
// x.recording.
func (x *Executor) note(kind explain.Kind) *explain.Decision {
	x.at()
	return x.stage.Add(kind, x.nowNs)
}

// noteWindow stages a window-lifecycle record.
func (x *Executor) noteWindow(kind explain.Kind, w *ExecWindow) *explain.Decision {
	d := x.note(kind)
	d.Node, d.Begin, d.Finish = w.Obj, w.Begin, w.Finish
	return d
}

// noteEdge stages a per-candidate verdict: node is the object the candidate
// event would add, peer the endpoint already in the graph.
func (x *Executor) noteEdge(kind explain.Kind, ev event.EventID, node, peer event.ObjID) *explain.Decision {
	d := x.note(kind)
	d.Event, d.Node, d.Peer = ev, node, peer
	return d
}

// bindMemo binds the memo cache under plan's filter fingerprint, so verdicts
// cached under another filter cannot serve it, and evaluates through the
// view from then on. With a log, the view offers its verdicts to
// stageVerdict.
func (x *Executor) bindMemo(plan *refiner.Plan) error {
	mv, err := x.opts.Memo.Bind(x.st, plan.FilterFingerprint(), x.rec)
	if err != nil {
		return err
	}
	if x.rec != nil {
		mv.SetStage(x.stageVerdict)
	}
	x.mv, x.env = mv, mv
	return nil
}

// stageVerdict stages a memo verdict the run loop reached inside a window,
// in order with the loop's own records and stamped, like them, at the
// clock's reading: the lookup that calls it has just charged. Elsewhere —
// MatchStart before the run, a plan swap from OnUpdate or from another
// goroutine — it declines, and the view notes the verdict in the log itself.
func (x *Executor) stageVerdict(hit bool, what string, obj event.ObjID, from, to int64, rows int) bool {
	if !x.staging {
		return false
	}
	kind := explain.KindMemoMiss
	if hit {
		kind = explain.KindMemoHit
	}
	x.stale = true
	d := x.note(kind)
	d.Node, d.Begin, d.Finish, d.Card, d.Detail = obj, from, to, int32(rows), x.stage.Str(what)
	return true
}

// flush hands the stage to the log — one call, one lock, one pass, one
// counter add — and empties it. It runs when a window ends (so the stage is
// empty whenever the loop parks or ends) and before every OnUpdate callback:
// whatever a callback, a parked reader or a golden file can see of the
// records is what unstaged emission would have shown them, and a concurrent
// reader trails the loop by at most the window in flight.
func (x *Executor) flush() {
	if len(x.stage.Recs) == 0 {
		return
	}
	if x.rec != nil {
		x.rec.Consume(&x.stage)
	} else { // recording for telemetry alone
		for i := range x.stage.Recs {
			x.watch.Step(0, &x.stage.Recs[i], x.stage.Nums)
		}
	}
	x.stage.Reset()
}

// Graph returns the dependency graph built so far (nil before Run).
func (x *Executor) Graph() *graph.Graph {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.g
}

// Plan returns the currently active plan.
func (x *Executor) Plan() *refiner.Plan {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.plan
}

// Pause suspends the run at the next window boundary. It returns once the
// executor acknowledges the pause — the run loop has parked — or the run
// already ended, so a caller that sequences Pause before UpdatePlan can
// never race an in-flight window. Calling Pause from the run goroutine
// itself (inside an OnUpdate callback) only requests the pause: the loop
// parks when the current window finishes, and blocking there would
// self-deadlock.
func (x *Executor) Pause() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.paused = true
	if x.runGoid == goid() {
		return
	}
	// Wait until the loop parks, the run ends, or the pause is cancelled
	// (Resume/Stop from a third goroutine releases the waiter).
	for x.running && !x.parked && x.paused {
		x.cond.Wait()
	}
}

// Resume lets a paused run continue.
func (x *Executor) Resume() {
	x.mu.Lock()
	x.paused = false
	x.mu.Unlock()
	x.cond.Broadcast()
}

// Stop terminates the run at the next window boundary.
func (x *Executor) Stop() {
	x.mu.Lock()
	x.stop = true
	x.paused = false
	x.mu.Unlock()
	x.cond.Broadcast()
}

// UpdatePlan swaps in a new compiled plan while the executor is paused,
// applying the given resume action. Restart is rejected: a changed starting
// point needs a fresh Executor (the session layer handles that case).
//
// When the run loop is active, UpdatePlan requires a pause to be in effect
// and waits until the loop has actually parked before swapping, so no
// in-flight window can observe a half-applied plan. (From the run goroutine
// itself — an OnUpdate callback — the swap is immediate: the loop is, by
// construction, not mid-window elsewhere.)
func (x *Executor) UpdatePlan(plan *refiner.Plan, action refiner.ResumeAction) error {
	if action == refiner.Restart {
		return errors.New("core: restart requires a new executor")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	fromHook := x.runGoid == goid()
	if x.running && !fromHook {
		if !x.paused {
			return errors.New("core: UpdatePlan on a running executor requires Pause first")
		}
		for x.running && !x.parked && x.paused {
			x.cond.Wait()
		}
		if x.running && !x.parked {
			return errors.New("core: pause was cancelled before the plan swap; call Pause again")
		}
	}
	x.plan = plan
	if fromHook {
		// The recalculation below may charge, and the loop does not re-read
		// the clock after the hook unless told to.
		x.stale = true
	}
	min, max, _ := x.st.TimeRange()
	x.from, x.to = plan.Range(min, max)
	x.budget = plan.TimeBudget
	if x.mv != nil {
		x.mv.Flush()
		if err := x.bindMemo(plan); err != nil {
			return err
		}
	}
	x.maint = maintainer.New(plan, x.env, x.from, x.to)
	// New filters may admit objects dropped under the old plan.
	x.dropped = make(map[event.ObjID]bool)
	if action == refiner.Repropagate && x.g != nil {
		return x.maint.Recalculate(x.g)
	}
	return nil
}

// Run executes backtracking analysis from the given alert event, blocking
// until the queue drains, the time budget expires, or Stop is called.
// The alert must satisfy the plan's starting point (callers that already
// verified this can pass verifyStart=false via RunUnchecked).
func (x *Executor) Run(alert event.Event) (*Result, error) {
	ok, err := x.plan.MatchStart(alert, x.env)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("core: alert event %d does not satisfy the plan's starting point", alert.ID)
	}
	return x.RunUnchecked(alert)
}

// Prepare initializes the analysis state for the given alert — the
// dependency graph seeded with the alert edge, the maintainer, and the
// initial execution windows (Algorithm 1 line 1) — without starting the
// exploration loop. Run/RunUnchecked call it implicitly; callers that need
// the graph inspectable before (or while) the loop runs, such as the
// interactive console, may call it explicitly first.
func (x *Executor) Prepare(alert event.Event) error {
	min, max, ok := x.st.TimeRange()
	if !ok {
		return errors.New("core: store is empty")
	}
	x.mu.Lock()
	if x.prepared {
		x.mu.Unlock()
		if alert.ID != x.alert.ID {
			return fmt.Errorf("core: executor already prepared for event %d", x.alert.ID)
		}
		return nil
	}
	x.prepared = true
	x.alert = alert
	x.from, x.to = x.plan.Range(min, max)
	x.budget = x.plan.TimeBudget
	x.fwd = x.plan.Forward
	x.g = graph.New(alert)
	x.maint = maintainer.New(x.plan, x.env, x.from, x.to)
	x.maint.Seed(x.g)
	x.dropped = make(map[event.ObjID]bool)
	x.started = x.clk.Now()
	x.now, x.nowNs, x.stale = x.started, 0, false
	x.stage.Base = x.started
	x.pq = windowHeap{fifo: x.opts.FIFOQueue, forward: x.fwd}
	x.mu.Unlock()

	// The alert edge seeds the graph before exploration starts: record the
	// hop-0 object and the second endpoint so every graph node — including
	// the two the analyst named — has an inclusion record. The run-start
	// record also opens the run's span in the trace and anchors the log's SLO
	// watchdog (so time-to-first-update is measured too).
	if x.recording {
		d := x.noteEdge(explain.KindRunStart, alert.ID, alert.Dst(), 0)
		d.Begin, d.Finish = x.from, x.to
		if alert.Src() != alert.Dst() {
			d = x.noteEdge(explain.KindEdgeAdded, alert.ID, alert.Src(), alert.Dst())
			d.Hop, d.Begin, d.Finish = 1, x.from, x.to
		}
	}

	// Line 1 of Algorithm 1: seed the queue with the alert's windows.
	explored := alert.Src()
	if x.fwd {
		explored = alert.Dst()
	}
	slot, _ := x.g.Slot(explored)
	x.enqueue(&alert, slot, 0)
	x.flush()
	x.tel.queueDepth.Set(int64(x.pq.Len()))
	return nil
}

// RunUnchecked is Run without validating the alert against the starting
// point. Experiment harnesses use it to backtrack from arbitrary events.
func (x *Executor) RunUnchecked(alert event.Event) (*Result, error) {
	if err := x.Prepare(alert); err != nil {
		return nil, err
	}

	x.mu.Lock()
	x.running = true
	x.runGoid = goid()
	x.mu.Unlock()
	defer func() {
		// What a window that failed had staged, the query samples the run's
		// view still holds and the memo hits it has not published.
		x.staging = false
		x.flush()
		x.st.FlushQueryProfile()
		x.mv.Flush()
		// Release Pause/UpdatePlan callers blocked on the park handshake.
		x.mu.Lock()
		x.running = false
		x.runGoid = 0
		x.cond.Broadcast()
		x.mu.Unlock()
	}()

	reason := Completed
loop:
	for {
		// Honor pause/stop between window queries. Parking is a handshake:
		// the broadcast releases Pause (and UpdatePlan) callers waiting for
		// the loop to be provably outside processWindow.
		x.mu.Lock()
		if x.paused && !x.stop {
			x.parked = true
			x.cond.Broadcast()
			for x.paused && !x.stop {
				x.cond.Wait()
			}
			x.parked = false
		}
		if x.stop {
			x.mu.Unlock()
			reason = Stopped
			break loop
		}
		budget := x.budget
		x.mu.Unlock()
		// A park lets time pass, and a plan swapped in meanwhile may have
		// charged a recalculation.
		x.stale = true

		if budget > 0 && x.at().Sub(x.started) >= budget {
			reason = TimeBudgetExceeded
			break loop
		}
		w, ok := x.pq.pop()
		if !ok {
			break loop
		}
		if x.g.Epoch() != 0 {
			// Queued windows hold node slots, and pruning renumbers them: it
			// belongs after the run (session.Finalize), never under a pause.
			return nil, errors.New("core: the graph was pruned while windows were still queued")
		}
		x.staging = true
		if err := x.processWindow(&w); err != nil {
			return nil, err
		}
		x.staging = false
		x.flush()
		x.tel.queueDepth.Set(int64(x.pq.Len()))
	}

	endAt := x.clk.Now()
	if x.recording {
		x.now, x.nowNs, x.stale = endAt, int64(endAt.Sub(x.started)), false
		why := x.stage.Str(reason.String())
		// Windows still queued when a budget or the analyst ended the run are
		// frontiers the analysis never explored: record each so Explain can
		// say "this region was abandoned", not just stay silent about it.
		for reason != Completed {
			w, ok := x.pq.pop()
			if !ok {
				break
			}
			x.noteWindow(explain.KindWindowAbandoned, &w).Detail = why
		}
		// Close the run: the lane's watchdog checks the tail gap (a run may
		// stall by ending long after its last update) and the run's span ends.
		x.note(explain.KindRunEnd).Detail = why
	}

	return &Result{
		Graph:   x.g,
		Reason:  reason,
		Updates: x.updates,
		Elapsed: endAt.Sub(x.started),
		Windows: x.windows,
	}, nil
}

// enqueue generates and schedules the execution windows of event e, whose
// flow-source object (flow destination in forward mode), the node in slot, is
// about to be explored. boost carries prioritize-rule priority. Ranges already
// scheduled for the same object are skipped, so every (object, time point)
// pair is queried at most once per run.
func (x *Executor) enqueue(e *event.Event, slot int32, boost int) {
	w := ExecWindow{Gen: e.ID, Obj: e.Src(), Slot: slot, State: int16(x.g.State(slot)), Boost: int8(boost)}
	done := x.covered.At(int(slot))
	ws := x.winBuf[:0]
	if x.fwd {
		// Impact tracking: windows extend from the event's time towards the
		// end of the analysis range, and the explored object is the event's
		// flow destination.
		w.Obj = e.Dst()
		ts := e.Time
		if ts < x.from {
			ts = x.from
		}
		ts++
		if done.any {
			if ts >= done.until {
				return // already covered from an earlier event
			}
			// Only the uncovered prefix needs new windows, and one will do.
			w.Begin, w.Finish = ts, done.until
			ws = append(ws, w)
		} else {
			ws = appendExeWindowsForward(ws, w, ts, x.to, x.opts.Windows)
		}
		*done = coverage{until: ts, any: true}
		x.schedule(ws)
		return
	}
	ts, te := x.from, e.Time
	if te > x.to {
		te = x.to
	}
	switch {
	case done.any:
		if te <= done.until {
			return
		}
		// Coverage extensions are slivers between two events of the same
		// object: only the uncovered suffix needs a window, and one suffices
		// (re-splitting bounds its size).
		w.Begin, w.Finish = done.until, te
		ws = append(ws, w)
	case x.opts.UniformWindows:
		ws = appendUniformWindows(ws, w, ts, te, x.opts.Windows)
	default:
		ws = appendExeWindows(ws, w, ts, te, x.opts.Windows)
	}
	*done = coverage{until: te, any: true}
	x.schedule(ws)
}

// schedule pushes the freshly generated windows of one object, all but the
// provably empty ones. ws is the executor's window buffer; the queue copies
// what it keeps.
func (x *Executor) schedule(ws []ExecWindow) {
	x.winBuf = ws
	for i := range ws {
		w := &ws[i]
		// Index statistics make empty ranges detectable without touching
		// the table (the count models an index-only cardinality estimate);
		// provably empty windows are never queried. The estimate rides along
		// on the window so the re-split check at pop time does not count the
		// identical range a second time.
		n, err := x.count(w.Obj, w.Begin, w.Finish)
		if err == nil && n == 0 {
			if x.rec != nil {
				x.noteWindow(explain.KindWindowEmpty, w)
			}
			continue
		}
		w.Card = int32(n)
		x.push(w)
	}
}

// push queues a window, recording its estimate and priority inputs.
func (x *Executor) push(w *ExecWindow) {
	if x.recording {
		d := x.noteWindow(explain.KindWindowEnqueued, w)
		d.Card, d.State, d.Boost = w.Card, w.State, w.Boost
	}
	x.pq.push(w)
}

// count is the direction-resolved index-only cardinality estimate. A plain
// method dispatch here (instead of binding x.st.CountBackward to a variable)
// keeps processWindow free of per-call closure allocations.
func (x *Executor) count(obj event.ObjID, from, to int64) (int, error) {
	if x.fwd {
		return x.st.CountForward(obj, from, to)
	}
	return x.st.CountBackward(obj, from, to)
}

// query is the direction-resolved window fetch, appending into buf.
func (x *Executor) query(buf []event.Event, obj event.ObjID, from, to int64) ([]event.Event, error) {
	if x.fwd {
		return x.st.AppendForward(buf, obj, from, to)
	}
	return x.st.AppendBackward(buf, obj, from, to)
}

// processWindow runs one bounded query (Algorithm 1 lines 3-7): fetch the
// events inside the window that flow into the window's object, add them as
// edges, and schedule their own windows. Windows that would retrieve more
// than DefaultMaxWindowRows rows are split in half (re-queued nearest-half
// first) instead of being queried, keeping every retrieval — and therefore
// every inter-update gap — bounded.
func (x *Executor) processWindow(w *ExecWindow) error {
	if !x.opts.NoSplit && w.Finish-w.Begin >= 2 {
		// Reuse the enqueue-time cardinality estimate; the store is sealed,
		// so the count cannot have changed. Only re-split halves (Card == 0,
		// unknown) need a fresh count.
		n := int(w.Card)
		if n <= 0 {
			var err error
			n, err = x.count(w.Obj, w.Begin, w.Finish)
			if err != nil {
				return err
			}
		}
		if n > DefaultMaxWindowRows {
			mid := w.Begin + (w.Finish-w.Begin)/2
			far, near := *w, *w
			if x.fwd {
				near.Finish = mid
				far.Begin = mid
			} else {
				near.Begin = mid
				far.Finish = mid
			}
			// One index-only count prices both halves: the posting range is
			// exact over contiguous half-open windows, so far = n - near.
			// Empty halves are pruned exactly as at enqueue time.
			nc, err := x.count(near.Obj, near.Begin, near.Finish)
			if err != nil {
				return err
			}
			near.Card, far.Card = int32(nc), int32(n-nc)
			if x.recording {
				x.noteWindow(explain.KindWindowResplit, w).Card = int32(n)
				x.tel.resplits.Inc()
			}
			if near.Card > 0 {
				x.push(&near)
			}
			if far.Card > 0 {
				x.push(&far)
			}
			return nil
		}
	}
	x.windows++
	var began int64
	if x.recording {
		x.at()
		began = x.nowNs
	}
	// The window query appends into a buffer reused across every window of
	// the run, as enqueue generates into winBuf and the queue keeps its
	// windows in a slice, and the graph and the per-node state grow a page at a
	// time: the loop allocates only when one of those grows
	// (experiments.TestExecutorRunAllocations holds a whole run to a few
	// hundred allocations).
	depsBuf, err := x.query(x.depsBuf[:0], w.Obj, w.Begin, w.Finish)
	x.stale = true
	if err != nil {
		return err
	}
	x.depsBuf = depsBuf
	if x.recording {
		x.at()
		d := x.stage.Queried(began, x.nowNs)
		d.Node, d.Begin, d.Finish, d.Card = w.Obj, w.Begin, w.Finish, int32(len(depsBuf))
		x.tel.windows.Inc()
	}
	hopLimit := x.plan.HopBudget
	// Every dependency's known endpoint is the window's object, so its node
	// slot comes with the window; events are read in place in the buffer,
	// which nothing below appends to.
	for i := range depsBuf {
		dep := &depsBuf[i]
		src := dep.Src()
		if x.fwd {
			src = dep.Dst() // src is the newly discovered side
		}
		known := w.Obj
		// A node's windows partition the range it has covered, so no query
		// returns an event twice; only the alert edge, which seeded the graph
		// without a query, can come back.
		if dep.ID == x.alert.ID {
			if x.rec != nil {
				x.noteEdge(explain.KindEdgeDedup, dep.ID, src, 0)
			}
			continue
		}
		if len(x.dropped) != 0 && x.dropped[src] {
			if x.rec != nil {
				x.noteEdge(explain.KindEdgeDropped, dep.ID, src, known)
			}
			continue
		}
		// General host constraint.
		if len(x.plan.Hosts) != 0 {
			host := x.st.ObjectRef(dep.Subject).Host
			if x.plan.HostAllowed(host) {
				host = x.st.ObjectRef(dep.Object).Host
			}
			if !x.plan.HostAllowed(host) {
				if x.rec != nil {
					x.noteEdge(explain.KindEdgeHostFiltered, dep.ID, src, known).Detail = x.stage.Str(host)
				}
				continue
			}
		}
		// Where statement: objects failing it are deleted from the
		// analysis without further exploration.
		if x.plan.Where != nil {
			keep, err := x.plan.Where.Keep(*dep, src, x.env, x.from, x.to)
			x.stale = true
			if err != nil {
				return err
			}
			if !keep {
				x.dropped[src] = true
				if x.rec != nil {
					clause, pos := x.plan.Where.FailingClause(*dep, src, x.env, x.from, x.to)
					x.stale = true // FailingClause charges too
					d := x.noteEdge(explain.KindEdgeWhereRejected, dep.ID, src, known)
					d.Clause, d.Begin, d.Finish = x.stage.Str(clause), int64(pos.Line), int64(pos.Col)
				}
				continue
			}
		}
		// One graph call checks the hop budget (paths longer than the limit
		// are not extended), inserts the edge and reports the graph's size.
		added := x.g.Add(dep, w.Slot, x.fwd, hopLimit)
		if added.OverBudget {
			if x.rec != nil {
				d := x.noteEdge(explain.KindEdgeHopBudget, dep.ID, src, known)
				d.Hop, d.Card = int32(added.Hop), int32(hopLimit)
			}
			continue
		}
		if err := x.maint.OnEdge(x.g, dep); err != nil {
			return err
		}
		boost := x.boostFor(dep, w)
		if len(x.plan.Chain) > 0 {
			// OnEdge evaluates (and may charge) only a tracking chain's
			// matchers; boostFor's patterns read the object table alone.
			x.stale = true
		}
		if x.recording {
			d := x.noteEdge(explain.KindEdgeAdded, dep.ID, src, known)
			d.Hop, d.Begin, d.Finish, d.Boost = int32(added.Hop), w.Begin, w.Finish, int8(boost)
		}
		x.updates++
		if x.opts.OnUpdate != nil {
			// The hook sees every record up to its own update, and a plan it
			// swaps in logs its recalculation's verdicts itself.
			x.flush()
			x.staging = false
			x.opts.OnUpdate(Update{Event: *dep, NewNode: added.NewNode, At: x.at(), Edges: added.Edges})
			// The hook's return is not a stamp point: a retrieval's updates
			// share one stamp unless something charges (UpdatePlan says so).
			x.staging = true
		}
		x.enqueue(dep, added.Slot, boost)
	}
	return nil
}

// boostFor decides whether the newly discovered edge earns prioritize-rule
// priority: either the edge itself matches a rule's downstream pattern, or
// the window it arrived through was already boosted and the edge matches the
// upstream pattern with the byte-conservation check against the window's
// generating event. That event came from a window query, so it is stored (the
// alert, which need not be, generates windows with no boost), and reading it
// back is an uncharged lookup.
func (x *Executor) boostFor(dep *event.Event, w *ExecWindow) int {
	for _, rule := range x.plan.Prioritize {
		if rule.Down.Match(*dep, x.env) {
			return 1
		}
		if w.Boost > 0 {
			if gen, ok := x.st.EventByID(w.Gen); ok && rule.BoostEdge(*dep, gen, x.env) {
				return 1
			}
		}
	}
	return 0
}

// appendUniformWindows is the ablation variant of appendExeWindows: k
// equal-width windows.
func appendUniformWindows(buf []ExecWindow, w ExecWindow, ts, te int64, k int) []ExecWindow {
	if te <= ts || k < 1 {
		return buf
	}
	width := (te - ts) / int64(k)
	if width < 1 {
		width = 1
	}
	w.Finish = te
	for i := 0; i < k && w.Finish > ts; i++ {
		w.Begin = w.Finish - width
		if i == k-1 || w.Begin < ts {
			w.Begin = ts
		}
		buf = append(buf, w)
		w.Finish = w.Begin
	}
	return buf
}
