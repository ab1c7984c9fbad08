// Package aptrace is the public API of APTrace, a responsive backtracking
// (attack-provenance) analysis system reproducing "APTrace: A Responsive
// System for Agile Enterprise Level Causality Analysis" (ICDE 2020).
//
// # Overview
//
// Backtracking analysis takes an anomaly alert (a system event) and searches
// the audit-event history backwards along data-flow dependencies to recover
// the attack's root cause. APTrace adds two things to the classic algorithm:
//
//   - BDL, a domain-specific language for the pruning and prioritization
//     heuristics analysts otherwise hard-code (time/host ranges, node
//     chains, where-filters, hop/time budgets, quantity-based rules);
//   - execution-window partitioning, which turns each node's monolithic
//     history scan into a priority queue of geometrically sized windows so
//     the dependency graph updates at a steady, interactive cadence.
//
// # Quick start
//
//	ds, _ := aptrace.Generate(aptrace.WorkloadConfig{Seed: 1, Hosts: 4, Days: 3, Density: 0.5}, nil)
//	sess := aptrace.NewSession(ds.Store, aptrace.ExecOptions{})
//	err := sess.Start(`
//	    backward ip a[dst_ip = "203.0.113.66"] -> *
//	    where file.path != "*.dll"`, nil)
//	res, err := sess.Wait()
//	aptrace.WriteDOT(os.Stdout, res.Graph, ds.Store.Object)
//
// The executable entry points live in cmd/aptrace (run a BDL script against
// a store), cmd/apgen (build a synthetic enterprise dataset), and
// cmd/apbench (regenerate every table and figure of the paper's evaluation).
package aptrace

import (
	"io"
	"net/http"
	"time"

	"aptrace/internal/alerts"
	"aptrace/internal/audit"
	"aptrace/internal/baseline"
	"aptrace/internal/bdl"
	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/fleet"
	"aptrace/internal/graph"
	"aptrace/internal/memo"
	"aptrace/internal/refiner"
	"aptrace/internal/serve"
	"aptrace/internal/session"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/suggest"
	"aptrace/internal/telemetry"
	"aptrace/internal/workload"
)

// Core model types.
type (
	// Event is one normalized system event (subject process, object,
	// data-flow direction, timestamp, byte amount).
	Event = event.Event
	// EventID identifies an event within one store.
	EventID = event.EventID
	// Object is a system object: process instance, file, or socket.
	Object = event.Object
	// ObjID is a compact object reference within one store.
	ObjID = event.ObjID
)

// Storage layer.
type (
	// Store is the embedded audit-event database.
	Store = store.Store
	// LiveStore is the continuously collecting store: WAL-backed appends,
	// consistent snapshots for analysis, checkpointing into segments.
	LiveStore = store.Live
	// Clock is the time source queries charge their modeled cost to.
	Clock = simclock.Clock
	// SimulatedClock is a virtual clock driven by the query cost model.
	SimulatedClock = simclock.Simulated
	// StoreOption configures a Store at open/create time.
	StoreOption = store.Option
)

// Telemetry layer.
type (
	// Telemetry is the metrics registry: atomic counters, gauges and
	// fixed-bucket histograms, exposed as JSON snapshots and Prometheus
	// text. A nil *Telemetry disables all publication at near-zero cost.
	Telemetry = telemetry.Registry
)

// Explain layer: the run log.
type (
	// ExplainRecorder is a run's log, a ring-buffered record of every
	// decision the analysis made; attach one per analysis through
	// ExecOptions.Explain. EXPLAIN answers come from it, and so do the run's
	// Chrome trace and SLO report once it is bound as a lane (aptrace
	// -timeline). A nil *ExplainRecorder disables recording at the cost of
	// one pointer test per decision.
	ExplainRecorder = explain.Recorder
	// DOTAnnotation marks a pruned candidate for WriteDOTAnnotated.
	DOTAnnotation = graph.DOTAnnotation
)

// Language and planning layer.
type (
	// Script is a parsed BDL script.
	Script = bdl.Script
	// Plan is a compiled, executable BDL script.
	Plan = refiner.Plan
)

// Analysis layer.
type (
	// Graph is the dependency (tracking) graph backtracking produces.
	Graph = graph.Graph
	// Update is one responsive progress report (an edge landed).
	Update = graph.Update
	// Executor runs responsive backtracking with execution-window
	// partitioning.
	Executor = core.Executor
	// ExecOptions configure an Executor (window count k, update callback,
	// ablation toggles).
	ExecOptions = core.Options
	// ExecResult summarizes a finished analysis.
	ExecResult = core.Result
	// Session is the interactive pause/edit/resume analysis loop.
	Session = session.Session
	// BaselineOptions configure the King-Chen execute-to-complete
	// comparison engine.
	BaselineOptions = baseline.Options
	// BaselineResult is its outcome.
	BaselineResult = baseline.Result
	// Fleet is a bounded worker pool running many independent analyses
	// concurrently over one shared sealed store; pair each run with its
	// own (*Store).View so runs share the event log but not clocks or
	// counters. See NewFleet, FleetMap.
	Fleet = fleet.Pool
	// MemoCache is the shared cross-alert attribute-verdict cache batch
	// triage and the triage daemon hang off ExecOptions.Memo: the computed
	// attributes where clauses evaluate (read-only, write-through, file
	// times) are reused across runs over the same sealed content. A hit
	// replays the identical charged cost, so all analysis output is
	// byte-identical cached or uncached. See NewMemoCache.
	MemoCache = memo.Cache
)

// Dataset and detection layer.
type (
	// WorkloadConfig controls synthetic enterprise dataset generation.
	WorkloadConfig = workload.Config
	// Dataset is a generated history plus attack ground truth.
	Dataset = workload.Dataset
	// Attack is one injected scenario's ground truth.
	Attack = workload.Attack
	// Detector is the rule-based anomaly detector.
	Detector = alerts.Detector
	// AuditFormat selects the ETW-style or auditd-style wire format.
	AuditFormat = audit.Format
	// Suggestion is a proposed BDL exclusion heuristic derived from an
	// explored graph's hot spots.
	Suggestion = suggest.Suggestion
	// RareChildRule is the learned unusual-parentage detector rule.
	RareChildRule = alerts.RareChildRule
)

// Re-exported constants.
const (
	// DefaultWindows is the default execution-window count k (the paper's
	// empirical value).
	DefaultWindows = core.DefaultWindows

	// Audit wire formats.
	FormatETW    = audit.FormatETW
	FormatAuditd = audit.FormatAuditd
)

// NewStore creates an empty, unsealed store charging query costs to clk
// (nil = real clock: no simulated charges).
func NewStore(clk Clock, opts ...StoreOption) *Store { return store.New(clk, opts...) }

// OpenStore loads a persisted store directory and returns it sealed and
// query-ready.
func OpenStore(dir string, clk Clock, opts ...StoreOption) (*Store, error) {
	return store.Open(dir, clk, opts...)
}

// NewTelemetry returns an enabled metrics registry. Attach it to
// a store with WithTelemetry and to an executor or session through
// ExecOptions.Telemetry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// RegisterRuntimeMetrics adds Go runtime vitals to the registry —
// goroutine count, heap in-use, GC cycle counter, and a GC pause
// histogram — refreshed lazily at scrape/snapshot time so an idle process
// pays nothing between scrapes. Nil-safe no-op.
func RegisterRuntimeMetrics(reg *Telemetry) { telemetry.RegisterRuntime(reg) }

// NewMemoCache builds a cross-alert attribute-verdict cache with the given
// byte budget (0 means the 64 MiB default). Share one cache across every run
// of a batch (or a triage daemon's fleet) via ExecOptions.Memo; reg may be
// nil, or a registry to publish the aptrace_memo_* hit/miss/evict/bytes
// instruments.
func NewMemoCache(maxBytes int64, reg *Telemetry) *MemoCache { return memo.New(maxBytes, reg) }

// WithTelemetry attaches a telemetry registry to a store at open/create
// time; queries then publish rows-examined and latency metrics.
func WithTelemetry(reg *Telemetry) StoreOption { return store.WithTelemetry(reg) }

// WithShards partitions the store into n host×time shards that seal side by
// side and answer queries by scatter-gather (1 keeps the default single
// part, and overrides a persisted shard count at OpenStore time). Sharding
// is real-CPU-only acceleration: every query result, charged cost, and
// experiment table is byte-identical for any n.
func WithShards(n int) StoreOption { return store.WithShards(n) }

// WithShardEpoch sets the time-bucket width, in seconds, of the host×time
// shard routing key (0 keeps the default of one segment span). Only
// meaningful together with WithShards.
func WithShardEpoch(seconds int64) StoreOption { return store.WithShardEpoch(seconds) }

// ServeTelemetry serves the registry's /metrics (Prometheus text) and
// /debug/telemetry (JSON) endpoints on addr in a background goroutine,
// returning the server and its bound address (useful with ":0").
func ServeTelemetry(addr string, reg *Telemetry) (*http.Server, string, error) {
	return telemetry.Serve(addr, reg)
}

// NewSimulatedClock returns a virtual clock for cost-modeled analysis runs.
// The zero time starts the clock at a fixed epoch.
func NewSimulatedClock() *SimulatedClock { return simclock.NewSimulated(time.Time{}) }

// Generate builds a synthetic enterprise dataset with the paper's five
// attack scenarios injected (see WorkloadConfig.Attacks to select a subset).
func Generate(cfg WorkloadConfig, clk Clock) (*Dataset, error) {
	return workload.Generate(cfg, clk)
}

// ParseScript parses BDL source into a Script.
func ParseScript(src string) (*Script, error) { return bdl.Parse(src) }

// FormatScript renders a Script back to canonical BDL source.
func FormatScript(s *Script) string { return bdl.Format(s) }

// CompileScript parses and compiles BDL source into an executable Plan.
func CompileScript(src string) (*Plan, error) { return refiner.ParseAndCompile(src) }

// NewExecutor prepares a responsive backtracking executor over a sealed
// store.
func NewExecutor(st *Store, plan *Plan, opts ExecOptions) (*Executor, error) {
	return core.New(st, plan, opts)
}

// NewSession creates an interactive analysis session over a sealed store.
func NewSession(st *Store, opts ExecOptions) *Session {
	return session.New(st, opts)
}

// NewFleet returns a pool running at most workers concurrent analyses;
// workers <= 0 means all cores. A nil registry disables the pool gauges.
func NewFleet(workers int, reg *Telemetry) *Fleet { return fleet.New(workers, reg) }

// FleetMap runs job(0..n-1) on the pool and collects the results by job
// index, so aggregation order matches submission order no matter how the
// scheduler interleaved the runs. The first (lowest-index) error aborts the
// batch and is returned wrapped with its job index.
func FleetMap[T any](p *Fleet, n int, job func(int) (T, error)) ([]T, error) {
	return fleet.Map(p, n, job)
}

// RunBaseline performs classic King-Chen execute-to-complete backtracking,
// the comparison engine of the paper's evaluation.
func RunBaseline(st *Store, alert Event, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.Run(st, alert, opts)
}

// DetectorRule is one anomaly-detection rule; implement it to extend the
// detector.
type DetectorRule = alerts.Rule

// NewDetector builds the rule-based anomaly detector (default rule set when
// called without rules).
func NewDetector(rules ...DetectorRule) *Detector { return alerts.NewDetector(rules...) }

// DefaultRules returns the built-in detector rule set (abnormal children of
// server daemons, large external uploads, protected-file writes).
func DefaultRules() []DetectorRule { return alerts.DefaultRules() }

// WriteDOT renders a dependency graph in Graphviz DOT format; resolve is
// normally (*Store).Object.
func WriteDOT(w io.Writer, g *Graph, resolve func(ObjID) Object) error {
	return graph.WriteDOT(w, g, resolve)
}

// WriteDOTAnnotated renders the graph like WriteDOT plus the prune frontier
// as dashed gray nodes — one per excluded candidate, labeled with the
// deciding reason (see ExplainRecorder and PruneFrontierAnnotations).
func WriteDOTAnnotated(w io.Writer, g *Graph, resolve func(ObjID) Object, pruned []DOTAnnotation) error {
	return graph.WriteDOTAnnotated(w, g, resolve, pruned)
}

// NewExplainRecorder returns a decision flight recorder retaining the most
// recent capacity records (capacity <= 0 selects the default). reg, if
// non-nil, receives the aptrace_explain_records_total and
// aptrace_explain_dropped_total counters.
func NewExplainRecorder(capacity int, reg *Telemetry) *ExplainRecorder {
	return explain.New(capacity, reg)
}

// PruneFrontierAnnotations converts a recorder's prune frontier into the
// annotation list WriteDOTAnnotated draws.
func PruneFrontierAnnotations(rec *ExplainRecorder) []DOTAnnotation {
	frontier := rec.PruneFrontier()
	out := make([]DOTAnnotation, len(frontier))
	for i, p := range frontier {
		out[i] = DOTAnnotation{Obj: p.Node, Peer: p.Peer, Reason: p.Reason}
	}
	return out
}

// IngestAudit reads newline-delimited audit records (ETW-style or
// auditd-style, auto-detected per line) into an unsealed store.
func IngestAudit(st *Store, r io.Reader) (audit.IngestStats, error) {
	return audit.Ingest(st, r)
}

// OpenLiveStore opens (or initializes) a continuously collecting store in
// dir: appends are WAL-durable, Snapshot yields sealed analysis views, and
// Checkpoint folds the tail into segment files.
func OpenLiveStore(dir string, clk Clock, opts ...StoreOption) (*LiveStore, error) {
	return store.OpenLive(dir, clk, opts...)
}

// IngestAuditLive streams audit records into a live store as they arrive.
func IngestAuditLive(l *LiveStore, r io.Reader) (audit.IngestStats, error) {
	return audit.IngestLive(l, r)
}

// SuggestHeuristics proposes BDL exclusion clauses from the hot spots of an
// explored dependency graph, ranked by how much of the graph they account
// for. The analyst verifies and applies; see RenderSuggestions.
func SuggestHeuristics(g *Graph, st *Store, limit int) []Suggestion {
	return suggest.ForGraph(g, st, suggest.Options{Limit: limit})
}

// RenderSuggestions formats suggestions as a pasteable BDL where clause.
func RenderSuggestions(sugs []Suggestion) string { return suggest.Render(sugs) }

// PathFromStart returns a shortest edge path from the analysis starting
// point to target within an explored graph (forward=true for impact
// graphs), for displaying the causal chain.
func PathFromStart(g *Graph, target ObjID, forward bool) ([]Event, bool) {
	return graph.PathFromStart(g, target, forward)
}

// TrainRareChildRule learns (parent, child) process-start frequencies over
// [from, to) and returns a detector rule flagging rare parentage.
func TrainRareChildRule(st *Store, from, to int64, maxSeen int) (*RareChildRule, error) {
	return alerts.TrainRareChildRule(st, from, to, maxSeen)
}

// Triage service: the always-on deployment shape (cmd/apserve wraps this).
type (
	// TriageServer is the long-running daemon tying ingest, incremental
	// detection, auto-launched backtracking, and the JSON/SSE API together.
	TriageServer = serve.Server
	// TriageConfig assembles a TriageServer.
	TriageConfig = serve.Config
	// TriageQuota is the per-tenant session admission quota.
	TriageQuota = serve.Quota
	// TriageRun is one managed backtracking session (auto-launched or
	// analyst-submitted).
	TriageRun = serve.Run
	// TriageSummary is the API-facing snapshot of a TriageRun.
	TriageSummary = serve.Summary
)

// NewTriageServer assembles the always-on triage daemon. Start launches the
// detection loop, Serve binds the HTTP API, Drain shuts down gracefully.
func NewTriageServer(cfg TriageConfig) (*TriageServer, error) { return serve.New(cfg) }

// ExportAudit writes a sealed store's events to w in the given wire format,
// in 64 KiB blocks: one Write per block, not per record.
func ExportAudit(st *Store, w io.Writer, f AuditFormat) (int, error) {
	return audit.Export(st, w, f)
}
