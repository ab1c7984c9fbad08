// Package serve is the always-on triage service: the deployment shape of
// the paper's system, where collection, detection, and investigation run
// continuously instead of as one-shot CLI sessions.
//
// A Server ties the existing subsystems into one long-running daemon:
//
//   - ingest: newline-delimited audit records (ETW-style or auditd-style,
//     via the internal/audit codecs) stream in over HTTP POST or file tail
//     into a WAL-durable live store;
//   - detection: the internal/alerts rule set runs incrementally over the
//     live tail — each pass scans only events newer than the last;
//   - investigation: every alert auto-launches a backtracking session on
//     the internal/fleet worker pool, and analysts submit their own BDL
//     scripts through the JSON API;
//   - serving: graph updates stream to subscribers as Server-Sent Events,
//     and EXPLAIN/timeline views of any run are one GET away.
//
// The session Manager is the admission-control core: per-tenant quotas,
// 429-with-Retry-After when the fleet saturates, bounded per-subscriber
// update buffers with slow-consumer drop accounting, and a graceful drain
// that stops analyses, flushes the WAL, and reports. cmd/apserve is the
// thin CLI over this package.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aptrace/internal/alerts"
	"aptrace/internal/audit"
	"aptrace/internal/event"
	"aptrace/internal/fleet"
	"aptrace/internal/memo"
	"aptrace/internal/obs"
	"aptrace/internal/qprof"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// Source yields consistent sealed snapshots for detection and analysis.
// *store.Live implements it; StaticSource adapts an already sealed store.
type Source interface {
	Snapshot() (*store.Store, error)
}

// staticSource serves one immutable sealed store.
type staticSource struct{ st *store.Store }

func (s staticSource) Snapshot() (*store.Store, error) { return s.st, nil }

// StaticSource adapts a sealed store as a Source — the shape load tests and
// read-only deployments use (no ingest, fixed history).
func StaticSource(st *store.Store) Source { return staticSource{st} }

// autoTenant is the tenant auto-launched runs are charged to, so a noisy
// detector saturates its own quota, never an analyst's.
const autoTenant = "detector"

// Config assembles a Server.
type Config struct {
	// Source provides snapshots (required). Pass the *store.Live used for
	// ingest, or StaticSource for a fixed history.
	Source Source
	// Live additionally enables the ingest endpoints; normally the same
	// value as Source.
	Live *store.Live
	// Rules is the detector rule set; nil selects alerts.DefaultRules.
	Rules []alerts.Rule
	// DetectEvery is the background detection cadence; 0 disables the
	// loop (DetectNow still works, which is what tests drive).
	DetectEvery time.Duration
	// AutoBacktrack launches a backtracking session for every alert, charged
	// to the tenant "detector".
	AutoBacktrack bool
	// AutoHops bounds auto-launched scripts (default 10).
	AutoHops int
	// AutoBudget, when positive, adds an analysis time budget to
	// auto-launched scripts ("time <= Ns"); zero leaves them hop-bounded
	// only.
	AutoBudget time.Duration
	// Workers bounds concurrent analyses (<=0: all cores).
	Workers int
	// QueueCap bounds the global session backlog (default 64).
	QueueCap int
	// Quota is the per-tenant admission bound (zero fields take
	// DefaultQuota).
	Quota Quota
	// Windows is the executor's window count k (0: core default).
	Windows int
	// SubscriberBuffer is how many updates an SSE subscriber may trail the
	// newest one by (default DefaultSubscriberBuffer). A subscriber is a
	// cursor into the session's one update history, so the bound costs no
	// memory; one that falls further behind skips forward, and the updates
	// it skipped count as dropped for that subscriber only. Updates already
	// published when it attached are replayed in full regardless.
	SubscriberBuffer int
	// RetainSessions bounds how many finished (done/failed/aborted) runs —
	// and their full update histories — stay queryable; the oldest terminal
	// runs are evicted beyond it. Active and queued runs never count against
	// it. Default 512; negative disables eviction.
	RetainSessions int
	// RetainAlerts bounds the recorded alert log (oldest evicted; Seq keeps
	// counting across evictions). Default 4096; negative keeps everything.
	RetainAlerts int
	// MemoBytes, when positive, shares one attribute-verdict memo cache
	// (internal/memo: the read-only, write-through and file-time walks
	// where clauses evaluate) of that byte budget across every session the
	// manager runs. Hits replay the charged cost of the walk they elide, so
	// graphs, update streams and timelines are byte-identical with the
	// cache on or off (explain adds memo-hit/memo-miss records) — only real
	// CPU changes. The cache is reset
	// whenever a live store reseals with new content (the content signature
	// in every key already keeps stale entries from matching; the reset
	// reclaims their memory immediately). Zero disables the cache.
	MemoBytes int64
	// Telemetry receives every metric; nil creates a private registry so
	// the service is always observable.
	Telemetry *telemetry.Registry
	// ViewClock, when set, supplies each run's private query-cost clock
	// (load tests use fresh simulated clocks); nil shares the snapshot's
	// clock — real time in deployments.
	ViewClock func() simclock.Clock
	// Journal, when set, receives the correlated alert-lifecycle journal:
	// a correlation ID is minted per ingest batch and threaded through
	// detection, the auto-launched run's queueing, start, first update and
	// end, SSE delivery, and eviction — the pipeline only: what happens
	// inside a run is its log's. The journal stamps wall-clock time only and
	// never touches the analysis clock, so detection and graph output are
	// byte-identical with it on or off
	// (serve.TestCorrelationChainCompleteness holds this). Nil journals
	// nothing at ~2 ns per emission site (obs.TestNilJournalIsFree).
	Journal *obs.Journal
	// OpsRules are the self-watchdog's SLO rules; nil selects
	// obs.DefaultRules, an empty (non-nil) slice disables every rule
	// while keeping the watchdog's baseline ticking.
	OpsRules []obs.Rule
	// WatchdogEvery is the self-watchdog evaluation cadence; 0 disables
	// the watchdog goroutine (Watchdog().Tick still works for tests).
	WatchdogEvery time.Duration
}

// AlertRecord is one detector hit as the API reports it.
type AlertRecord struct {
	Seq       int       `json:"seq"`
	Rule      string    `json:"rule"`
	Severity  string    `json:"severity"`
	Message   string    `json:"message"`
	EventID   uint64    `json:"event_id"`
	EventTime int64     `json:"event_time"`
	SessionID string    `json:"session_id,omitempty"` // auto-launched run
	At        time.Time `json:"at"`
}

// Server is the triage daemon: ingest, continuous detection, the session
// manager, and the HTTP API.
type Server struct {
	cfg Config
	reg *telemetry.Registry
	mgr *Manager

	// detectMu serializes detection passes end to end, so the background
	// ticker and explicit DetectNow calls never scan the same window twice
	// (which would duplicate alerts and auto-launch duplicate sessions).
	detectMu sync.Mutex

	// ingestMu serializes ingest batches so each batch covers a contiguous
	// event-ID range — what maps an alert's event back to the ingest batch
	// (and correlation ID) that carried it.
	ingestMu sync.Mutex

	memo *memo.Cache // shared session memo cache; nil = disabled

	// qp is the daemon's always-on scatter-gather profiler. It is attached
	// to every snapshot (and inherited by the session views the manager
	// builds), so its per-kind totals on /debug/shards — and the per-shard
	// heat the same samples feed into the snapshot's ShardInfos — count
	// detection scans and analyst sessions alike. Profiling reads real CPU
	// only: charged cost, graphs, and update streams are byte-identical with
	// it on or off.
	qp *qprof.Profiler

	journal   *obs.Journal
	slis      *obs.SLIs
	watch     *obs.Watchdog
	corrSeq   atomic.Uint64
	startedAt time.Time
	// lastDetect is the wall-clock end of the last detection pass
	// (UnixNano; 0 = never), read by readiness and the watchdog.
	lastDetect atomic.Int64

	mu      sync.Mutex
	det     *alerts.Detector
	snap    *store.Store // latest snapshot (detection + session substrate)
	memoSig uint64       // content signature the memo cache was filled under
	// scanned is the last second detection has scanned (0 = nothing yet). A
	// later ingest batch may still carry events of that second, so the next
	// pass scans it again and skips what boundary holds: the alerts already
	// raised on its events.
	scanned  int64
	boundary map[alertKey]struct{}
	alerts   []AlertRecord
	alertSeq int           // total alerts ever recorded (survives eviction)
	batches  []ingestBatch // recent ingest batches, oldest first
	stop     chan struct{} // closes the detect loop
	stopped  chan struct{} // detect loop confirms exit
	drained  bool

	telAlerts   *telemetry.Counter
	telAutoRuns *telemetry.Counter
	opsCounters opsCounters
}

// ingestBatch maps one serialized ingest batch's contiguous event-ID range
// to its correlation ID. Live.Append assigns monotonically increasing IDs,
// so "which batch carried event E" is a range lookup.
type ingestBatch struct {
	corr  string
	first event.EventID
	last  event.EventID
	at    time.Time
}

// maxIngestBatches bounds the batch ring; alerts on events older than the
// retained window mint a fresh correlation ID instead.
const maxIngestBatches = 4096

// opsCounters caches the registry instruments the watchdog and /ops
// snapshot every tick.
type opsCounters struct {
	sessions    *telemetry.Counter
	rejected    *telemetry.Counter
	updates     *telemetry.Counter
	sseDropped  *telemetry.Counter
	ingestRecs  *telemetry.Counter
	ingestDecs  *telemetry.Counter
	ingestInval *telemetry.Counter
}

// New assembles a server. It takes an initial snapshot so the API can
// answer immediately; the detection loop (if enabled) must be started with
// Start.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil && cfg.Live != nil {
		cfg.Source = cfg.Live
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: Config.Source is required")
	}
	if cfg.AutoHops <= 0 {
		cfg.AutoHops = 10
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.SubscriberBuffer <= 0 {
		cfg.SubscriberBuffer = DefaultSubscriberBuffer
	}
	if cfg.RetainSessions == 0 {
		cfg.RetainSessions = 512
	}
	if cfg.RetainAlerts == 0 {
		cfg.RetainAlerts = 4096
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:         cfg,
		reg:         cfg.Telemetry,
		det:         alerts.NewDetector(cfg.Rules...),
		journal:     cfg.Journal,
		slis:        obs.NewSLIs(cfg.Telemetry),
		startedAt:   time.Now(),
		qp:          qprof.New(),
		telAlerts:   cfg.Telemetry.Counter(telemetry.MetricServeAlerts),
		telAutoRuns: cfg.Telemetry.Counter(telemetry.MetricServeAutoRuns),
	}
	s.opsCounters = opsCounters{
		sessions:    s.reg.Counter(telemetry.MetricServeSessions),
		rejected:    s.reg.Counter(telemetry.MetricServeSessionsRejected),
		updates:     s.reg.Counter(telemetry.MetricSessionUpdates),
		sseDropped:  s.reg.Counter(telemetry.MetricServeUpdatesDropped),
		ingestRecs:  s.reg.Counter(telemetry.MetricIngestRecords),
		ingestDecs:  s.reg.Counter(telemetry.MetricIngestDecodeErrors),
		ingestInval: s.reg.Counter(telemetry.MetricIngestInvalid),
	}
	if cfg.MemoBytes > 0 {
		s.memo = memo.New(cfg.MemoBytes, s.reg)
	}
	pool := fleet.New(cfg.Workers, s.reg)
	s.mgr = newManager(pool, cfg.QueueCap, cfg.Quota, cfg.Windows, cfg.RetainSessions, s.reg, s.memo, s.Snapshot, cfg.ViewClock, cfg.Journal, s.slis)
	rules := cfg.OpsRules
	if rules == nil {
		rules = obs.DefaultRules
	}
	s.watch = obs.NewWatchdog(cfg.Journal, s.reg, rules, s.opsCounts)
	snap, err := cfg.Source.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("serve: initial snapshot: %w", err)
	}
	snap.SetQueryProfiler(s.qp)
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
	s.invalidateMemo(snap)
	return s, nil
}

// invalidateMemo resets the shared memo cache when the snapshot's content
// signature moves — a live store resealed with new events. Correctness does
// not depend on this (the signature in every cache key keeps stale closures
// from matching); the reset reclaims their memory instead of letting dead
// entries age out of the LRU.
func (s *Server) invalidateMemo(snap *store.Store) {
	if s.memo == nil || snap == nil {
		return
	}
	sig, err := snap.ContentSignature()
	if err != nil {
		return
	}
	s.mu.Lock()
	changed := sig != s.memoSig
	s.memoSig = sig
	s.mu.Unlock()
	if changed {
		s.memo.Reset()
	}
}

// Telemetry returns the server's registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

// Manager returns the session manager.
func (s *Server) Manager() *Manager { return s.mgr }

// Journal returns the lifecycle journal (nil when disabled).
func (s *Server) Journal() *obs.Journal { return s.journal }

// Watchdog returns the self-watchdog (always built; ticking only when
// Config.WatchdogEvery is positive).
func (s *Server) Watchdog() *obs.Watchdog { return s.watch }

// newCorr mints the next correlation ID.
func (s *Server) newCorr() string {
	return "c-" + strconv.FormatUint(s.corrSeq.Add(1), 10)
}

// recordBatch remembers an ingest batch's ID range for corrForEvent.
func (s *Server) recordBatch(b ingestBatch) {
	s.mu.Lock()
	s.batches = append(s.batches, b)
	if len(s.batches) > maxIngestBatches {
		s.batches = append([]ingestBatch(nil), s.batches[len(s.batches)-maxIngestBatches:]...)
	}
	s.mu.Unlock()
}

// corrForEvent finds the ingest batch that carried event id, returning its
// correlation ID and arrival time. Newest-first search: alerts fire on the
// live tail.
func (s *Server) corrForEvent(id event.EventID) (string, time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.batches) - 1; i >= 0; i-- {
		if b := s.batches[i]; id >= b.first && id <= b.last {
			return b.corr, b.at, true
		}
	}
	return "", time.Time{}, false
}

// opsCounts snapshots the daemon's cumulative counters for the watchdog
// and the /ops summary. Memo hits and misses come from the cache's exact
// Stats, not from aptrace_memo_hits_total, which a view feeds in batches:
// read mid-run, that counter lags the misses and biases the hit rate down.
func (s *Server) opsCounts() obs.Counts {
	qlen, qcap := s.mgr.queue()
	ms := s.memo.Stats()
	c := obs.Counts{
		Submissions:      s.opsCounters.sessions.Value(),
		Rejected:         s.opsCounters.rejected.Value(),
		UpdatesPublished: s.opsCounters.updates.Value(),
		UpdatesDropped:   s.opsCounters.sseDropped.Value(),
		IngestLines:      s.opsCounters.ingestRecs.Value() + s.opsCounters.ingestDecs.Value() + s.opsCounters.ingestInval.Value(),
		DecodeErrors:     s.opsCounters.ingestDecs.Value(),
		MemoHits:         ms.Hits,
		MemoMisses:       ms.Misses,
		QueueLen:         qlen,
		QueueCap:         qcap,
	}
	if ns := s.lastDetect.Load(); ns != 0 {
		c.LastDetect = time.Unix(0, ns)
	}
	// Per-shard cumulative rows served feed the watchdog's shard_skew rule
	// (flat stores report nil and the rule stays silent).
	if snap, err := s.Snapshot(); err == nil && snap != nil {
		if infos := snap.ShardInfos(); len(infos) > 1 {
			c.ShardLoads = make([]int64, len(infos))
			for i, si := range infos {
				c.ShardLoads[i] = si.RowsServed
			}
		}
	}
	return c
}

// SetDetector replaces the rule set — deployments retrain learned rules
// (e.g. rare parentage) after enough history accumulates.
func (s *Server) SetDetector(det *alerts.Detector) {
	s.mu.Lock()
	s.det = det
	s.mu.Unlock()
}

// Snapshot returns the latest sealed snapshot.
func (s *Server) Snapshot() (*store.Store, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap, nil
}

// refreshSnapshot takes a fresh snapshot from the source and caches it,
// resetting the shared memo cache if the content moved.
func (s *Server) refreshSnapshot() (*store.Store, error) {
	snap, err := s.cfg.Source.Snapshot()
	if err != nil {
		return nil, err
	}
	// Re-attach the profiler: a live store reseals into a fresh *Store, and
	// views inherit the pointer at View() time. Attaching the same profiler
	// twice is harmless (atomic pointer store).
	snap.SetQueryProfiler(s.qp)
	s.mu.Lock()
	s.snap = snap
	s.mu.Unlock()
	s.invalidateMemo(snap)
	return snap, nil
}

// Start launches the background detection loop (no-op when
// Config.DetectEvery is zero) and the self-watchdog (no-op when
// Config.WatchdogEvery is zero).
func (s *Server) Start() {
	s.mu.Lock()
	drained := s.drained
	s.mu.Unlock()
	if drained {
		return
	}
	s.watch.Start(s.cfg.WatchdogEvery)
	if s.cfg.DetectEvery <= 0 {
		return
	}
	s.mu.Lock()
	if s.stop != nil || s.drained {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	stopped := make(chan struct{})
	s.stop, s.stopped = stop, stopped
	s.mu.Unlock()
	go func() {
		defer close(stopped)
		tick := time.NewTicker(s.cfg.DetectEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				s.DetectNow()
			}
		}
	}()
}

// alertKey identifies one alert: an event may trip several rules.
type alertKey struct {
	event event.EventID
	rule  string
}

// DetectNow runs one incremental detection pass: snapshot the source, scan
// from the last second the previous pass saw, record the new alerts, and — with
// AutoBacktrack — launch a backtracking session per alert on the fleet.
// It returns the number of new alerts. Passes are serialized: a concurrent
// call (the background ticker vs. an API-driven pass) waits its turn and
// then scans only what the first pass left, never the same window twice.
func (s *Server) DetectNow() (int, error) {
	s.detectMu.Lock()
	defer s.detectMu.Unlock()
	started := time.Now()
	snap, err := s.refreshSnapshot()
	if err != nil {
		return 0, err
	}
	min, max, ok := snap.TimeRange()
	if !ok {
		s.lastDetect.Store(time.Now().UnixNano())
		return 0, nil
	}
	s.mu.Lock()
	from := s.scanned
	raised := s.boundary
	det := s.det
	s.mu.Unlock()
	if from == 0 {
		from = min
	}
	if from > max {
		s.lastDetect.Store(time.Now().UnixNano())
		return 0, nil
	}
	hits, err := det.Scan(snap, from, max+1)
	if err != nil {
		return 0, err
	}
	now := time.Now()
	records := make([]AlertRecord, 0, len(hits))
	boundary := make(map[alertKey]struct{})
	for _, a := range hits {
		key := alertKey{a.Event.ID, a.Rule}
		if a.Event.Time == max {
			boundary[key] = struct{}{}
		}
		if _, dup := raised[key]; dup {
			continue
		}
		s.telAlerts.Inc()
		rec := AlertRecord{
			Rule:      a.Rule,
			Severity:  a.Severity.String(),
			Message:   a.Message,
			EventID:   uint64(a.Event.ID),
			EventTime: a.Event.Time,
			At:        now,
		}
		// Inherit the correlation ID of the ingest batch that carried the
		// alerting event, closing the ingest→detect segment of the
		// lifecycle; alerts on events outside the retained batch window
		// (e.g. a pre-seeded store) start their chain here.
		corr, ingestedAt, fromBatch := s.corrForEvent(a.Event.ID)
		if fromBatch {
			s.slis.IngestToDetect.Observe(now.Sub(ingestedAt).Seconds())
		} else {
			corr = s.newCorr()
		}
		s.journal.Emit(obs.Info, obs.StageAlert, corr, "",
			fmt.Sprintf("%s (%s): %s", a.Rule, rec.Severity, a.Message), int64(a.Event.ID), 0)
		if s.cfg.AutoBacktrack {
			script := ScriptForEvent(a.Event, snap, s.cfg.AutoHops, s.cfg.AutoBudget)
			alert := a.Event
			if run, err := s.mgr.SubmitCorr(corr, autoTenant, script, &alert, true, a.Rule); err == nil {
				rec.SessionID = run.ID
				s.telAutoRuns.Inc()
			}
			// A saturated fleet drops the auto-run (counted in
			// aptrace_serve_sessions_rejected_total and journaled as
			// run.rejected); the alert itself is still recorded for the
			// analyst.
		}
		records = append(records, rec)
	}
	s.mu.Lock()
	s.scanned, s.boundary = max, boundary
	for i := range records {
		s.alertSeq++
		records[i].Seq = s.alertSeq
		s.alerts = append(s.alerts, records[i])
	}
	if n := s.cfg.RetainAlerts; n > 0 && len(s.alerts) > n {
		s.alerts = append([]AlertRecord(nil), s.alerts[len(s.alerts)-n:]...)
	}
	s.mu.Unlock()
	end := time.Now()
	s.lastDetect.Store(end.UnixNano())
	s.journal.Emit(obs.Debug, obs.StageDetect, "", "",
		fmt.Sprintf("scanned [%d,%d], %d alerts", from, max, len(records)), int64(len(records)), end.Sub(started))
	return len(records), nil
}

// Alerts returns the retained alerts in detection order (the newest
// Config.RetainAlerts; Seq exposes each alert's position in the full log).
func (s *Server) Alerts() []AlertRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AlertRecord(nil), s.alerts...)
}

// AlertsTotal reports how many alerts were ever recorded, including any
// already evicted by retention.
func (s *Server) AlertsTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alertSeq
}

// ScriptForEvent builds the auto-backtrack BDL script for an alert event.
// The starting node is typed after the event's flow destination — the
// object the executor seeds backtracking from (the subject for inbound
// flows, the object for outbound ones) — pinned to the event's second, and
// bounded by a hop budget so an auto-run cannot explode unattended. A
// positive budget additionally bounds the analysis time ("time <= Ns").
func ScriptForEvent(e event.Event, st *store.Store, hops int, budget time.Duration) string {
	node := "proc p"
	switch st.Object(e.Dst()).Type {
	case event.ObjSocket:
		node = "ip a"
	case event.ObjFile:
		node = "file f"
	}
	when := e.When().Format("01/02/2006:15:04:05")
	where := fmt.Sprintf("hop <= %d", hops)
	if budget > 0 {
		secs := int64(budget / time.Second)
		if secs < 1 {
			secs = 1
		}
		where += fmt.Sprintf(" and time <= %ds", secs)
	}
	return fmt.Sprintf("backward %s[event_time = %q] -> *\nwhere %s", node, when, where)
}

// IngestReader streams newline-delimited audit records into the live store
// (the HTTP ingest endpoint's engine). Requires Config.Live. Each call is
// one ingest batch: batches are serialized so the events they append form
// a contiguous ID range, and each batch mints the correlation ID every
// downstream lifecycle stage inherits.
func (s *Server) IngestReader(r io.Reader) (audit.IngestStats, error) {
	if s.cfg.Live == nil {
		return audit.IngestStats{}, fmt.Errorf("serve: ingest requires a live store")
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	before := s.cfg.Live.BaseEvents() + s.cfg.Live.PendingEvents()
	stats, err := audit.IngestLive(s.cfg.Live, r)
	s.noteBatch(before, stats, err)
	return stats, err
}

// noteBatch records a completed ingest batch: maps its event-ID range to a
// fresh correlation ID and journals the arrival. Caller holds ingestMu.
func (s *Server) noteBatch(before int, stats audit.IngestStats, err error) {
	if stats.Lines == 0 && err == nil {
		return
	}
	corr := s.newCorr()
	at := time.Now()
	if stats.Ingested > 0 {
		s.recordBatch(ingestBatch{
			corr:  corr,
			first: event.EventID(before + 1),
			last:  event.EventID(before + stats.Ingested),
			at:    at,
		})
	}
	lvl, msg := obs.Info, fmt.Sprintf("%d lines: %d ingested, %d rejected (%d decode, %d invalid)",
		stats.Lines, stats.Ingested, stats.Rejected, stats.Decode, stats.Invalid)
	if err != nil {
		lvl, msg = obs.Warn, msg+": "+err.Error()
	}
	s.journal.Emit(lvl, obs.StageIngest, corr, "", msg, int64(stats.Ingested), 0)
}

// Tail follows an audit log file, ingesting complete lines as they are
// appended — the file-replay collector. It polls (the portable choice) and
// returns when ctx is canceled; a vanished file is an error.
func (s *Server) Tail(ctx context.Context, path string, poll time.Duration) error {
	if s.cfg.Live == nil {
		return fmt.Errorf("serve: tail requires a live store")
	}
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serve: tail: %w", err)
	}
	defer f.Close()
	var pending []byte
	buf := make([]byte, 64*1024)
	for {
		n, err := f.Read(buf)
		if n > 0 {
			pending = append(pending, buf[:n]...)
			continue // drain the file before sleeping
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("serve: tail: %w", err)
		}
		// EOF: the complete lines read since the last pause are one ingest
		// batch, through IngestReader — one correlation ID per drain cycle.
		// A partial last line waits for the rest of it.
		if i := bytes.LastIndexByte(pending, '\n'); i >= 0 {
			if _, err := s.IngestReader(bytes.NewReader(pending[:i+1])); err != nil {
				return err
			}
			pending = append(pending[:0], pending[i+1:]...)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(poll):
		}
	}
}

// Drain executes graceful shutdown: stop the detection loop, drain the
// session manager (active analyses stop and finalize, queued ones abort),
// and flush the live store's WAL. Bounded by ctx.
func (s *Server) Drain(ctx context.Context) DrainReport {
	s.mu.Lock()
	stop, stopped := s.stop, s.stopped
	s.stop, s.stopped = nil, nil
	s.drained = true
	s.mu.Unlock()
	s.watch.Stop()
	if stop != nil {
		close(stop)
		<-stopped
	}
	rep := s.mgr.Drain(ctx)
	if s.cfg.Live != nil {
		if err := s.cfg.Live.Sync(); err != nil {
			rep.Clean = false
		}
	}
	s.journal.Emit(obs.Info, obs.StageDrain, "", "",
		fmt.Sprintf("drained: %d stopped, %d aborted, clean=%v", rep.Stopped, rep.Aborted, rep.Clean), 0, rep.Took)
	return rep
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained
}

// Serve mounts the API on addr in a background goroutine, returning the
// server and bound address (useful with ":0"). The caller owns shutdown.
func (s *Server) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
