// Package timeline is the per-run profiler: it puts the logs of a set of
// analysis runs (internal/explain) on one time axis — the executor's window
// lifecycle (enqueue → query → update → re-split/abandon), the store's
// charged query costs, and session pause/resume — exportable as Chrome
// trace-event JSON (trace.go) and summarized by an inter-update-gap SLO
// report (report.go).
//
// It keeps no records of its own. A lane is a name and an ID bound to a
// run's log; the log folds its records into the run's progress and stalls
// as they arrive, and the trace is that fold replayed over the log when it
// is read. Lanes are allocated by sample index before dispatch and every
// timestamp is an instant of the run's (simulated) clock — never wall time —
// so fleet workers never contend and the exported trace is deterministic
// regardless of scheduling.
package timeline

import (
	"fmt"
	"sync"
	"time"

	"aptrace/internal/explain"
	"aptrace/internal/telemetry"
)

// DefaultGapTarget is the inter-update-gap SLO target. Table II reports
// APTrace's inter-update waiting time at avg 2 s, p90 4 s, p95 9 s; the
// default target is the p95 — an update cadence the paper's own system
// sustains on enterprise workloads.
const DefaultGapTarget = 9 * time.Second

// DefaultStallFactor is the watchdog multiplier: a stall fires when no
// graph update lands within StallFactor × GapTarget.
const DefaultStallFactor = 3

// Options configure a Profiler. The zero value is usable: Table II target,
// factor 3, no telemetry.
type Options struct {
	// GapTarget is the inter-update-gap SLO target (DefaultGapTarget if
	// zero or negative).
	GapTarget time.Duration
	// StallFactor is the watchdog multiplier (DefaultStallFactor if < 1):
	// a stall fires when a gap exceeds StallFactor × GapTarget.
	StallFactor int
	// Telemetry, if set, receives the aptrace_slo_stall_total counter, and
	// the record counters of the logs Lanes allocates.
	Telemetry *telemetry.Registry
}

// Profiler owns the run lanes of one profiling session. Lanes are
// allocated deterministically (sequential IDs from 1) so the exported
// trace does not depend on goroutine scheduling. A nil Profiler binds
// nothing, so callers need no enabled check.
type Profiler struct {
	target   time.Duration
	limit    time.Duration // target × factor; the stall threshold
	reg      *telemetry.Registry
	stallCtr *telemetry.Counter

	mu    sync.Mutex
	lanes []*explain.Recorder
}

// New returns a profiler with the given options (zero fields defaulted).
func New(opts Options) *Profiler {
	if opts.GapTarget <= 0 {
		opts.GapTarget = DefaultGapTarget
	}
	if opts.StallFactor < 1 {
		opts.StallFactor = DefaultStallFactor
	}
	return &Profiler{
		target:   opts.GapTarget,
		limit:    opts.GapTarget * time.Duration(opts.StallFactor),
		reg:      opts.Telemetry,
		stallCtr: opts.Telemetry.Counter(telemetry.MetricSLOStalls),
	}
}

// GapTarget returns the SLO target in effect (0 on a nil profiler).
func (p *Profiler) GapTarget() time.Duration {
	if p == nil {
		return 0
	}
	return p.target
}

// StallLimit returns the watchdog threshold, GapTarget × StallFactor.
func (p *Profiler) StallLimit() time.Duration {
	if p == nil {
		return 0
	}
	return p.limit
}

// Lane makes log the next lane, under the given name, and returns it: attach
// it to the run as its log (core.Options.Explain). A nil profiler, or a nil
// log, binds nothing and returns log as it is.
func (p *Profiler) Lane(name string, log *explain.Recorder) *explain.Recorder {
	if p == nil || log == nil {
		return log
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bindLocked(name, log)
	return log
}

func (p *Profiler) bindLocked(name string, log *explain.Recorder) {
	p.lanes = append(p.lanes, log)
	log.Bind(int64(len(p.lanes)), name, p.limit, p.stallCtr)
}

// Lanes allocates n logs as a contiguous block of lanes named "prefix i".
// Blocks are handed out in call order, so allocating all lanes before
// dispatching work (fleet.MapTimeline does) pins lane IDs to sample indexes
// and keeps the trace byte-identical between serial and parallel runs. A nil
// profiler returns nil.
func (p *Profiler) Lanes(prefix string, n int) []*explain.Recorder {
	if p == nil || n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*explain.Recorder, n)
	for i := range out {
		out[i] = explain.New(0, p.reg)
		p.bindLocked(fmt.Sprintf("%s %d", prefix, i), out[i])
	}
	return out
}

// snapshot returns the lane list (IDs are stable; lane contents are read
// under each log's own lock by the caller).
func (p *Profiler) snapshot() []*explain.Recorder {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*explain.Recorder(nil), p.lanes...)
}
