// Package obs is the daemon's alert-lifecycle journal: a leveled structured
// event log of the triage pipeline, correlated end-to-end by the correlation
// ID minted when an audit batch enters the system. Each pipeline stage —
// ingest batch, detection pass, alert, run queued/rejected/active/first
// update/terminal/evicted, SSE subscribe and close, ops alert and drain —
// emits one journal entry carrying that corr ID (and the run ID once a
// session exists), so an operator can reconstruct "where did the time go for
// alert X?" from a single query. What happens inside a run — its windows,
// memo verdicts, pauses and script updates — is the run's own log
// (internal/explain), read at /api/v1/sessions/{id}/explain and /timeline;
// the journal does not copy it.
//
// The journal follows the repo-wide nil-is-free invariant: every method is
// nil-safe, and a nil *Journal or *Scope reduces Emit to a pointer test
// (single-digit nanoseconds, zero allocations), so instrumented code never
// guards call sites. An enabled journal keeps every entry its level admits
// in a fixed-size ring for the /debug/journal query endpoint and optionally
// streams them as NDJSON to a writer. A stage emits once per ingest batch,
// detection pass, run, SSE subscriber, watchdog violation or drain, so the
// journal's rate is the pipeline's own and needs no sampling.
//
// The journal only ever *reads* pipeline state and stamps wall-clock time —
// never the analysis clock — so enabling it cannot change any detection or
// graph output (serve.TestCorrelationChainCompleteness holds byte identity
// journal on vs off).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"aptrace/internal/telemetry"
)

// Level orders journal entries by severity; a journal keeps the entries at
// or above its own level.
type Level int8

const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String returns the wire name of the level.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// ParseLevel converts a wire name back into a Level.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return 0, fmt.Errorf("obs: unknown level %q (want debug|info|warn|error)", s)
}

// Lifecycle stage names: every entry the daemon journals has one of these.
const (
	StageIngest         = "ingest.batch"
	StageDetect         = "detect.pass"
	StageAlert          = "alert"
	StageRunQueued      = "run.queued"
	StageRunRejected    = "run.rejected"
	StageRunActive      = "run.active"
	StageRunFirstUpdate = "run.first_update"
	StageRunTerminal    = "run.terminal"
	StageRunEvicted     = "run.evicted"
	StageSSESubscribe   = "sse.subscribe"
	StageSSEClose       = "sse.close"
	StageOpsAlert       = "ops.alert"
	StageDrain          = "ops.drain"
)

// Entry is one journal record. Fields are flat and typed (no maps) so the
// enabled emission path stays cheap and the NDJSON output is stable.
type Entry struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"ts"`
	Level string    `json:"level"`
	Stage string    `json:"stage"`
	Corr  string    `json:"corr,omitempty"`
	Run   string    `json:"run,omitempty"`
	Msg   string    `json:"msg,omitempty"`
	N     int64     `json:"n,omitempty"`
	DurMs float64   `json:"dur_ms,omitempty"`

	lvl Level
}

// Options configures New.
type Options struct {
	// Level is the minimum level kept (default Info). Entries below it
	// are rejected before any allocation.
	Level Level
	// Out, if non-nil, receives every kept entry as one NDJSON line.
	Out io.Writer
	// Ring is how many kept entries stay queryable in memory via Query
	// and the /debug/journal handler (default 8192; <0 disables the
	// ring).
	Ring int
	// Telemetry, if set, receives aptrace_obs_journal_entries_total.
	Telemetry *telemetry.Registry
}

// DefaultRing is the default in-memory entry capacity.
const DefaultRing = 8192

// Journal is the lifecycle journal. All methods are safe on a nil receiver
// and for concurrent use.
type Journal struct {
	level   Level
	telKept *telemetry.Counter

	mu      sync.Mutex
	out     io.Writer
	outErr  error
	ring    []Entry
	ringCap int
	seq     uint64 // kept entries, ever
}

// New builds a Journal. The zero Options value journals Info+ into an
// 8192-entry ring with no NDJSON output.
func New(o Options) *Journal {
	j := &Journal{
		level:   o.Level,
		out:     o.Out,
		ringCap: o.Ring,
	}
	if o.Ring == 0 {
		j.ringCap = DefaultRing
	}
	if j.ringCap < 0 {
		j.ringCap = 0
	}
	if j.ringCap > 0 {
		j.ring = make([]Entry, 0, j.ringCap)
	}
	j.telKept = o.Telemetry.Counter(telemetry.MetricObsJournalEntries)
	return j
}

// Emit records one entry. corr and run may be empty; d <= 0 omits the
// duration field. On a nil journal, or below the configured level, Emit is
// a few-nanosecond no-op.
func (j *Journal) Emit(l Level, stage, corr, run, msg string, n int64, d time.Duration) {
	if j == nil || l < j.level {
		return
	}
	e := Entry{
		Time:  time.Now(),
		Level: l.String(),
		Stage: stage,
		Corr:  corr,
		Run:   run,
		Msg:   msg,
		N:     n,
		lvl:   l,
	}
	if d > 0 {
		e.DurMs = float64(d.Nanoseconds()) / 1e6
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if j.ringCap > 0 {
		if len(j.ring) < j.ringCap {
			j.ring = append(j.ring, e)
		} else {
			j.ring[int((e.Seq-1)%uint64(j.ringCap))] = e
		}
	}
	if j.out != nil {
		if line, err := json.Marshal(e); err == nil {
			if _, werr := j.out.Write(append(line, '\n')); werr != nil && j.outErr == nil {
				j.outErr = werr
			}
		}
	}
	j.mu.Unlock()
	j.telKept.Inc()
}

// Stats is a point-in-time journal summary: the entries kept, ever, and
// the first NDJSON write error, after which the writer receives nothing.
type Stats struct {
	Kept  uint64 `json:"kept"`
	Error string `json:"error,omitempty"`
}

// Stats reports the journal's totals.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Stats{Kept: j.seq}
	if j.outErr != nil {
		s.Error = j.outErr.Error()
	}
	return s
}

// Err returns the first NDJSON write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outErr
}

// Scope binds a correlation ID (and optionally a run ID) so pipeline code
// can emit without threading both strings everywhere. A nil journal hands
// out a nil scope; both are free to call.
func (j *Journal) Scope(corr, run string) *Scope {
	if j == nil {
		return nil
	}
	return &Scope{j: j, corr: corr, run: run}
}

// Scope is a corr/run-bound emitter. Nil-safe.
type Scope struct {
	j    *Journal
	corr string
	run  string
}

// Emit journals one entry under the scope's corr and run IDs.
func (s *Scope) Emit(l Level, stage, msg string, n int64, d time.Duration) {
	if s == nil {
		return
	}
	s.j.Emit(l, stage, s.corr, s.run, msg, n, d)
}
