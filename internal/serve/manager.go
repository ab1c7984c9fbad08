package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/fleet"
	"aptrace/internal/graph"
	"aptrace/internal/memo"
	"aptrace/internal/obs"
	"aptrace/internal/refiner"
	"aptrace/internal/session"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// Admission-control errors. The API layer maps ErrSaturated to HTTP 429
// (with Retry-After), ErrDraining to 503, ErrNotFound to 404, and
// ErrEvicted to 410 — a session that existed but was dropped by the
// retention cap is gone, not unknown, and clients polling an old run ID
// need to tell the two apart.
var (
	ErrSaturated = errors.New("serve: saturated: session quota or queue full")
	ErrDraining  = errors.New("serve: draining: not accepting new sessions")
	ErrNotFound  = errors.New("serve: no such session")
	ErrEvicted   = errors.New("serve: session evicted by retention")
)

// Quota bounds one tenant's in-flight sessions: at most MaxActive running
// plus MaxQueued awaiting a fleet worker. A submission that would exceed
// MaxActive+MaxQueued in-flight sessions is rejected with ErrSaturated.
type Quota struct {
	MaxActive int
	MaxQueued int
}

// DefaultQuota allows a small interactive workload per tenant.
var DefaultQuota = Quota{MaxActive: 4, MaxQueued: 8}

// RunState is a session's lifecycle position.
type RunState uint8

const (
	// RunQueued: admitted, waiting for a fleet worker.
	RunQueued RunState = iota
	// RunActive: the backtracking analysis is executing.
	RunActive
	// RunDone: finished (completed, budget expired, or stopped).
	RunDone
	// RunFailed: the analysis errored (bad starting point and the like).
	RunFailed
	// RunAborted: drained from the queue before a worker picked it up.
	RunAborted
)

// terminal reports whether the state is final (done, failed, or aborted).
func (s RunState) terminal() bool {
	return s == RunDone || s == RunFailed || s == RunAborted
}

// String names the state.
func (s RunState) String() string {
	switch s {
	case RunQueued:
		return "queued"
	case RunActive:
		return "active"
	case RunDone:
		return "done"
	case RunFailed:
		return "failed"
	default:
		return "aborted"
	}
}

// Run is one managed investigation: a queued-then-executing session plus
// everything the API serves about it (update stream, and the run log that
// EXPLAIN and the timeline read).
type Run struct {
	ID     string
	Tenant string
	Script string
	// Auto marks detector-launched runs; Rule carries the alert rule name.
	Auto bool
	Rule string
	// AlertID is the starting event, when the submission pinned one.
	AlertID event.EventID
	// Corr is the correlation ID threading this run back to the ingest
	// batch and detection pass that launched it (or the API submission
	// that created it). Immutable after admission.
	Corr string

	hub   *hub
	done  chan struct{} // closed when the run reaches a terminal state
	scope *obs.Scope    // journal scope pre-bound to (Corr, ID); nil = journal off
	slis  *obs.SLIs     // pipeline latency histograms (never nil; may be inert)

	mu          sync.Mutex
	state       RunState
	sess        *session.Session
	view        *store.Store
	rec         *explain.Recorder
	err         error
	reason      string
	created     time.Time
	started     time.Time
	finished    time.Time
	firstUpdate bool // LaunchToFirstUpdate observed (once per run); the run loop's own, not under mu
}

// Summary is the API-facing snapshot of a run.
type Summary struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant"`
	State    string    `json:"state"`
	Auto     bool      `json:"auto,omitempty"`
	Rule     string    `json:"rule,omitempty"`
	AlertID  uint64    `json:"alert_id,omitempty"`
	Corr     string    `json:"corr,omitempty"`
	Script   string    `json:"script"`
	Edges    int       `json:"edges"`
	Nodes    int       `json:"nodes"`
	Updates  int       `json:"updates"`
	Reason   string    `json:"reason,omitempty"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created_at"`
	Started  time.Time `json:"started_at"`
	Finished time.Time `json:"finished_at"`
}

// Summary snapshots the run for the API.
func (r *Run) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{
		ID: r.ID, Tenant: r.Tenant, State: r.state.String(),
		Auto: r.Auto, Rule: r.Rule, AlertID: uint64(r.AlertID),
		Corr: r.Corr, Script: r.Script, Reason: r.reason,
		Created: r.created, Started: r.started, Finished: r.finished,
	}
	if r.err != nil {
		s.Error = r.err.Error()
	}
	if r.sess != nil {
		if g := r.sess.Graph(); g != nil {
			s.Edges, s.Nodes = g.NumEdges(), g.NumNodes()
		}
	}
	s.Updates = r.hub.published()
	return s
}

// State returns the current lifecycle state.
func (r *Run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Wait blocks until the run reaches a terminal state.
func (r *Run) Wait() Summary {
	<-r.done
	return r.Summary()
}

// Done exposes the terminal-state channel (closed when finished).
func (r *Run) Done() <-chan struct{} { return r.done }

// Graph returns the dependency graph explored so far — partial while the
// run is active, final after it finishes, nil while still queued.
func (r *Run) Graph() *graph.Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == nil {
		return nil
	}
	return r.sess.Graph()
}

// session returns the live session, or nil while queued/terminal.
func (r *Run) session() *session.Session {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sess
}

// Pause suspends the analysis (no-op unless active).
func (r *Run) Pause() error {
	s := r.session()
	if s == nil {
		return fmt.Errorf("serve: session %s is not active", r.ID)
	}
	s.Pause()
	return nil
}

// Resume continues a paused analysis.
func (r *Run) Resume() error {
	s := r.session()
	if s == nil {
		return fmt.Errorf("serve: session %s is not active", r.ID)
	}
	s.Resume()
	return nil
}

// Stop terminates the analysis; the partial graph is preserved.
func (r *Run) Stop() error {
	s := r.session()
	if s == nil {
		return fmt.Errorf("serve: session %s is not active", r.ID)
	}
	s.Stop()
	return nil
}

// Explain returns the run's log (nil while queued), bound as the one lane of
// its timeline.
func (r *Run) Explain() *explain.Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec
}

// View returns the sealed store view the run analyzes (nil while queued).
func (r *Run) View() *store.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.view
}

// tenantCount tracks one tenant's in-flight sessions.
type tenantCount struct {
	active int
	queued int
}

// Manager owns session admission and execution: it enforces per-tenant
// quotas at submit time, hands admitted runs to the fleet runner (whose
// bounded queue is the global backstop), and tracks every run for the API.
type Manager struct {
	runner   *fleet.Runner
	quota    Quota
	windows  int
	retain   int // max terminal runs kept for the API (<0: unlimited)
	reg      *telemetry.Registry
	memo     *memo.Cache // shared across every run; nil = memo off
	snapshot func() (*store.Store, error)
	// viewClock, when set, supplies each run's private query-cost clock;
	// nil inherits the snapshot's clock (real time in deployments).
	viewClock func() simclock.Clock
	journal   *obs.Journal // lifecycle journal; nil = journaling off
	slis      *obs.SLIs    // pipeline latency histograms (never nil)

	mu       sync.Mutex
	runs     map[string]*Run
	order    []string
	tenants  map[string]*tenantCount
	draining bool
	nextID   int
	// evictedMax is the highest numeric session sequence dropped by
	// retention. Session IDs are monotonic ("s-<n>"), so a missing ID at or
	// below the watermark was evicted (410), one above it never existed (404).
	evictedMax int

	telActive   *telemetry.Gauge
	telQueued   *telemetry.Gauge
	telSessions *telemetry.Counter
	telRejected *telemetry.Counter
	telDropped  *telemetry.Counter
	opening     atomic.Int32 // submitted sessions whose stream has not opened (see hub.await)
}

// newManager wires a manager over a fleet pool. queue bounds the global
// submission backlog across all tenants; retain bounds how many terminal
// runs stay queryable (<0: unlimited).
func newManager(pool *fleet.Pool, queue int, quota Quota, windows, retain int,
	reg *telemetry.Registry, memoCache *memo.Cache, snapshot func() (*store.Store, error),
	viewClock func() simclock.Clock, journal *obs.Journal, slis *obs.SLIs) *Manager {
	if quota.MaxActive <= 0 {
		quota.MaxActive = DefaultQuota.MaxActive
	}
	if quota.MaxQueued <= 0 {
		quota.MaxQueued = DefaultQuota.MaxQueued
	}
	if slis == nil {
		slis = obs.NewSLIs(nil)
	}
	return &Manager{
		runner:      pool.Runner(queue),
		quota:       quota,
		windows:     windows,
		retain:      retain,
		reg:         reg,
		memo:        memoCache,
		snapshot:    snapshot,
		viewClock:   viewClock,
		journal:     journal,
		slis:        slis,
		runs:        make(map[string]*Run),
		tenants:     make(map[string]*tenantCount),
		telActive:   reg.Gauge(telemetry.MetricServeSessionsActive),
		telQueued:   reg.Gauge(telemetry.MetricServeSessionsQueued),
		telSessions: reg.Counter(telemetry.MetricServeSessions),
		telRejected: reg.Counter(telemetry.MetricServeSessionsRejected),
		telDropped:  reg.Counter(telemetry.MetricServeUpdatesDropped),
	}
}

// Submit admits, records, and enqueues one investigation. The script is
// compiled here so syntax errors surface as a 400 at the API instead of a
// failed run; alert, when non-nil, pins the starting event.
//
// Admission invariants:
//   - a draining manager accepts nothing (ErrDraining);
//   - a tenant holds at most MaxActive+MaxQueued in-flight runs
//     (ErrSaturated beyond that);
//   - the global fleet queue bounds total backlog regardless of tenant mix
//     (ErrSaturated when full).
func (m *Manager) Submit(tenant, script string, alert *event.Event, auto bool, rule string) (*Run, error) {
	return m.SubmitCorr("", tenant, script, alert, auto, rule)
}

// SubmitCorr is Submit with an explicit correlation ID threading the run
// back to the ingest batch / detection pass (or API request) that caused
// it. An empty corr leaves the run uncorrelated (journal entries still
// carry the run ID).
func (m *Manager) SubmitCorr(corr, tenant, script string, alert *event.Event, auto bool, rule string) (*Run, error) {
	if _, err := refiner.ParseAndCompile(script); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	tc := m.tenants[tenant]
	if tc == nil {
		tc = &tenantCount{}
		m.tenants[tenant] = tc
	}
	if tc.active+tc.queued >= m.quota.MaxActive+m.quota.MaxQueued {
		m.telRejected.Inc()
		rejected := fmt.Errorf("%w (tenant %s: %d active, %d queued)", ErrSaturated, tenant, tc.active, tc.queued)
		m.mu.Unlock()
		m.journal.Emit(obs.Warn, obs.StageRunRejected, corr, "", rejected.Error(), 0, 0)
		return nil, rejected
	}
	m.nextID++
	run := &Run{
		ID:      fmt.Sprintf("s-%d", m.nextID),
		Tenant:  tenant,
		Script:  script,
		Auto:    auto,
		Rule:    rule,
		Corr:    corr,
		slis:    m.slis,
		hub:     newHub(m.telDropped, &m.opening),
		done:    make(chan struct{}),
		created: time.Now(),
	}
	run.scope = m.journal.Scope(corr, run.ID)
	if alert != nil {
		run.AlertID = alert.ID
	}
	var alertCopy *event.Event
	if alert != nil {
		a := *alert
		alertCopy = &a
	}
	tc.queued++
	m.telQueued.Add(1)
	m.runs[run.ID] = run
	m.order = append(m.order, run.ID)
	m.mu.Unlock()
	if !auto {
		run.hub.await() // its submitter is about to attach to the stream
	}

	if !m.runner.TrySubmit(func() { m.execute(run, alertCopy) }) {
		run.hub.opened()
		// Global queue full (or runner closed): roll the admission back.
		// The lock was released in between, so a concurrent Submit may have
		// appended after us — remove our ID wherever it is, never the tail.
		m.mu.Lock()
		tc.queued--
		m.telQueued.Add(-1)
		delete(m.runs, run.ID)
		for i := len(m.order) - 1; i >= 0; i-- {
			if m.order[i] == run.ID {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.telRejected.Inc()
		m.mu.Unlock()
		m.journal.Emit(obs.Warn, obs.StageRunRejected, corr, run.ID, "global queue full", 0, 0)
		return nil, fmt.Errorf("%w (global queue full)", ErrSaturated)
	}
	m.telSessions.Inc()
	run.scope.Emit(obs.Info, obs.StageRunQueued,
		fmt.Sprintf("tenant=%s auto=%v rule=%s", tenant, auto, rule), int64(run.AlertID), 0)
	return run, nil
}

// execute runs one admitted session on a fleet worker.
func (m *Manager) execute(run *Run, alert *event.Event) {
	defer m.evictTerminal()
	m.mu.Lock()
	tc := m.tenants[run.Tenant]
	tc.queued--
	m.telQueued.Add(-1)
	if m.draining {
		m.mu.Unlock()
		run.finish(RunAborted, nil, ErrDraining, "")
		return
	}
	tc.active++
	m.telActive.Add(1)
	m.mu.Unlock()
	// Mark the run active the moment the worker claims it, so State() agrees
	// with the tenant's active count (Drain relies on this to tell claimed
	// runs from ones still waiting in the fleet queue).
	run.mu.Lock()
	run.state = RunActive
	run.started = time.Now()
	wait := run.started.Sub(run.created)
	run.mu.Unlock()
	if run.Auto {
		run.slis.DetectToLaunch.Observe(wait.Seconds())
	}
	run.scope.Emit(obs.Info, obs.StageRunActive, "worker claimed", 0, wait)
	if run.hub.awaited {
		// Its submitter's next request, the one that opens the stream, reaches
		// a saturated runtime only when a processor goes idle (see justOpened):
		// the run naps once before it starts, as it does after that stream's
		// first write.
		time.Sleep(time.Microsecond)
	}
	defer func() {
		m.mu.Lock()
		tc.active--
		m.mu.Unlock()
		m.telActive.Add(-1)
	}()

	snap, err := m.snapshot()
	if err == nil {
		var clk simclock.Clock
		if m.viewClock != nil {
			clk = m.viewClock()
		}
		snap, err = snap.View(clk)
	}
	if err != nil {
		run.finish(RunFailed, nil, err, "")
		return
	}
	rec := explain.New(0, m.reg)
	rec.Bind(1, run.ID, explain.DefaultStallFactor*explain.DefaultGapTarget)
	onUpdate := func(u graph.Update) {
		run.noteFirstUpdate()
		if run.hub.publish(u) {
			runtime.Gosched()
		} else if run.hub.justOpened() {
			time.Sleep(time.Microsecond)
		}
	}
	sess := session.New(snap, core.Options{
		Windows:   m.windows,
		OnUpdate:  onUpdate,
		Telemetry: m.reg,
		Explain:   rec,
		Memo:      m.memo,
	})

	run.mu.Lock()
	run.sess = sess
	run.view = snap
	run.rec = rec
	run.mu.Unlock()

	if err := sess.Start(run.Script, alert); err != nil {
		run.finish(RunFailed, sess, err, "")
		return
	}
	res, err := sess.Wait()
	if err != nil {
		run.finish(RunFailed, sess, err, "")
		return
	}
	run.finish(RunDone, sess, nil, res.Reason.String())
}

// noteFirstUpdate marks the run's first graph update: it observes the
// launch-to-first-update SLI and journals the milestone, exactly once. The run
// loop is its one caller, so it takes no lock: every later update pays a test.
func (r *Run) noteFirstUpdate() {
	if r.firstUpdate {
		return
	}
	r.firstUpdate = true
	lat := time.Since(r.started) // set before the run loop started, never again
	r.slis.LaunchToFirstUpdate.Observe(lat.Seconds())
	r.scope.Emit(obs.Info, obs.StageRunFirstUpdate, "first graph update", 0, lat)
}

// finish moves the run to a terminal state and closes its update stream.
func (r *Run) finish(state RunState, sess *session.Session, err error, reason string) {
	r.mu.Lock()
	r.state = state
	r.sess = sess
	r.err = err
	r.reason = reason
	r.finished = time.Now()
	total := r.finished.Sub(r.created)
	r.mu.Unlock()
	r.hub.close()
	close(r.done)
	if r.slis != nil {
		r.slis.SubmitToTerminal.Observe(total.Seconds())
	}
	msg := state.String()
	if reason != "" {
		msg += ": " + reason
	}
	lvl := obs.Info
	if err != nil {
		lvl = obs.Warn
		msg += ": " + err.Error()
	}
	r.scope.Emit(lvl, obs.StageRunTerminal, msg, 0, total)
}

// evictTerminal enforces the retention cap: when more than retain runs are
// terminal, the oldest terminal runs are dropped from the tracked set —
// their update histories (and hubs) go with them, bounding an always-on
// daemon's memory by the retention window instead of by total sessions ever
// run. Active and queued runs are never evicted.
func (m *Manager) evictTerminal() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.retain < 0 {
		return
	}
	terminal := 0
	for _, id := range m.order {
		if m.runs[id].State().terminal() {
			terminal++
		}
	}
	drop := terminal - m.retain
	if drop <= 0 {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		if drop > 0 && m.runs[id].State().terminal() {
			m.runs[id].scope.Emit(obs.Debug, obs.StageRunEvicted, "retention cap", 0, 0)
			delete(m.runs, id)
			if n, ok := sessionSeq(id); ok && n > m.evictedMax {
				m.evictedMax = n
			}
			drop--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// queue reports the fleet runner's backlog (queued jobs, queue capacity)
// for readiness and watchdog saturation checks.
func (m *Manager) queue() (queued, capacity int) {
	return m.runner.Queue()
}

// accepting reports whether a new submission could be admitted: the
// manager is not draining and the fleet runner still takes jobs.
func (m *Manager) accepting() bool {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	return !draining && m.runner.Accepting()
}

// sessionSeq extracts the numeric sequence from an "s-<n>" session ID.
func sessionSeq(id string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(id, "s-%d", &n); err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// Run looks a session up by ID. A missing ID at or below the eviction
// watermark belonged to a session retention already dropped (ErrEvicted);
// anything else missing never existed here (ErrNotFound).
func (m *Manager) Run(id string) (*Run, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	run, ok := m.runs[id]
	if !ok {
		if n, isSeq := sessionSeq(id); isSeq && n <= m.evictedMax {
			return nil, fmt.Errorf("%w (session %s)", ErrEvicted, id)
		}
		return nil, ErrNotFound
	}
	return run, nil
}

// Runs returns every tracked run in submission order.
func (m *Manager) Runs() []*Run {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Run, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.runs[id])
	}
	return out
}

// Counts reports (active, queued, total) sessions.
func (m *Manager) Counts() (active, queued, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, tc := range m.tenants {
		active += tc.active
		queued += tc.queued
	}
	return active, queued, len(m.runs)
}

// DrainReport summarizes a graceful shutdown.
type DrainReport struct {
	Stopped int           `json:"stopped"` // active runs asked to stop
	Aborted int           `json:"aborted"` // queued runs drained unexecuted
	Clean   bool          `json:"clean"`   // every worker finished in time
	Took    time.Duration `json:"took"`
}

// Drain performs the graceful-shutdown protocol: refuse new submissions,
// stop active analyses (their partial graphs and update streams finalize
// normally), let queued runs fall through as aborted, and wait — bounded by
// ctx — for every fleet worker to park.
func (m *Manager) Drain(ctx context.Context) DrainReport {
	start := time.Now()
	m.mu.Lock()
	m.draining = true
	var active, queued []*Run
	for _, id := range m.order {
		run := m.runs[id]
		switch run.State() {
		case RunActive:
			active = append(active, run)
		case RunQueued, RunAborted:
			queued = append(queued, run)
		}
	}
	m.mu.Unlock()

	var rep DrainReport
	for _, run := range active {
		if run.Stop() == nil {
			rep.Stopped++
		}
	}
	closed := make(chan struct{})
	go func() {
		m.runner.Close()
		close(closed)
	}()
	select {
	case <-closed:
		rep.Clean = true
	case <-ctx.Done():
	}
	// Count aborted from the queued-at-drain-start set (pointers survive
	// retention eviction): a run still RunQueued here never reached a worker
	// before ctx expired and will abort the moment one claims it, so it
	// counts too — Clean=false already flags the overrun.
	for _, run := range queued {
		if st := run.State(); st == RunQueued || st == RunAborted {
			rep.Aborted++
		}
	}
	rep.Took = time.Since(start)
	return rep
}
