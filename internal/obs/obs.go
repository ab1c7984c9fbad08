// Package obs is the daemon's alert-lifecycle journal: a leveled,
// rate-limited structured event log correlated end-to-end by the
// correlation ID minted when an audit batch enters the system. Every stage
// of the triage pipeline — ingest batch, detection pass, alert, launched
// session, executor window milestones, graph updates, memo verdicts, SSE
// delivery, terminal state and eviction — emits one journal entry carrying
// that corr ID (and the run ID once a session exists), so an operator can
// reconstruct "where did the time go for alert X?" from a single query.
//
// The journal follows the repo-wide nil-is-free invariant: every method is
// nil-safe, and a nil *Journal or *Scope reduces Emit to a pointer test
// (single-digit nanoseconds, zero allocations), so instrumented code never
// guards call sites. An enabled journal keeps entries in a fixed-size ring
// for the /debug/journal query endpoint and optionally streams them as
// NDJSON to a writer. Debug-level entries are rate-limited by deterministic
// per-stage sampling (keep the first Burst, then 1-in-SampleEvery with a
// seed-derived phase), so two journals configured with the same seed keep
// and drop exactly the same entries; Info and above are never sampled,
// which is what keeps lifecycle chains gap-free.
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
	"sort"
	"sync"
	"time"

	"aptrace/internal/telemetry"
)

// Level orders journal entries by severity. Debug entries are subject to
// sampling; Info and above are always kept (when the journal level admits
// them), so correlation chains never lose lifecycle milestones.
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

// Lifecycle stage names. Executor window milestones arrive with the
// timeline's own kind names ("window.enqueue", "window.query", ...), memo
// verdicts as "memo.hit"/"memo.miss"; the constants below cover the stages
// the serve pipeline emits directly.
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
	StageSession        = "session"
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
	// SampleBurst is how many Debug entries per stage are kept before
	// sampling kicks in (default 64).
	SampleBurst int
	// SampleEvery keeps 1-in-N Debug entries per stage after the burst
	// (default 16; <=1 keeps everything).
	SampleEvery int
	// Seed derives each stage's sampling phase, making the kept/dropped
	// set a pure function of (seed, emission sequence).
	Seed int64
	// Telemetry, if set, receives aptrace_obs_journal_entries_total and
	// aptrace_obs_journal_dropped_total.
	Telemetry *telemetry.Registry
}

// DefaultRing is the default in-memory entry capacity.
const DefaultRing = 8192

const (
	defaultSampleBurst = 64
	defaultSampleEvery = 16
)

// stageState tracks per-stage Debug sampling.
type stageState struct {
	phase   uint64
	seen    uint64
	kept    uint64
	dropped uint64
}

// Journal is the lifecycle journal. All methods are safe on a nil receiver
// and for concurrent use.
type Journal struct {
	level Level
	burst uint64
	every uint64
	seed  int64

	telKept    *telemetry.Counter
	telDropped *telemetry.Counter

	mu      sync.Mutex
	out     io.Writer
	outErr  error
	ring    []Entry
	ringCap int
	seq     uint64 // kept entries, ever
	dropped uint64 // sampled-away entries, ever
	stages  map[string]*stageState
}

// New builds a Journal. The zero Options value journals Info+ into an
// 8192-entry ring with no NDJSON output.
func New(o Options) *Journal {
	j := &Journal{
		level:   o.Level,
		burst:   uint64(o.SampleBurst),
		every:   uint64(o.SampleEvery),
		seed:    o.Seed,
		out:     o.Out,
		ringCap: o.Ring,
		stages:  make(map[string]*stageState),
	}
	if o.SampleBurst == 0 {
		j.burst = defaultSampleBurst
	}
	if o.SampleEvery == 0 {
		j.every = defaultSampleEvery
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
	j.telDropped = o.Telemetry.Counter(telemetry.MetricObsJournalDropped)
	return j
}

// Enabled reports whether an entry at level l would pass the journal's
// level gate. Nil journals are never enabled. Use it to skip building an
// expensive message, not to guard Emit.
func (j *Journal) Enabled(l Level) bool {
	return j != nil && l >= j.level
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
	if l == Debug && !j.sampleLocked(stage) {
		j.dropped++
		j.mu.Unlock()
		j.telDropped.Inc()
		return
	}
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

// sampleLocked decides whether a Debug entry for stage is kept. Per stage:
// keep the first burst entries, then 1-in-every with a phase derived from
// (seed, stage) — fully deterministic. Caller holds j.mu.
func (j *Journal) sampleLocked(stage string) bool {
	st := j.stages[stage]
	if st == nil {
		st = &stageState{}
		if j.every > 1 {
			st.phase = stagePhase(j.seed, stage) % j.every
		}
		j.stages[stage] = st
	}
	st.seen++
	keep := j.every <= 1 ||
		st.seen <= j.burst ||
		(st.seen-j.burst-1)%j.every == st.phase
	if keep {
		st.kept++
	} else {
		st.dropped++
	}
	return keep
}

// stagePhase hashes (seed, stage) into a sampling phase: FNV-1a over the
// stage name folded with a splitmix64 finalizer of the seed.
func stagePhase(seed int64, stage string) uint64 {
	h := uint64(14695981039346656037) ^ uint64(seed)
	for i := 0; i < len(stage); i++ {
		h ^= uint64(stage[i])
		h *= 1099511628211
	}
	// splitmix64 finalizer for avalanche.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// StageStats is per-stage Debug sampling accounting.
type StageStats struct {
	Stage   string `json:"stage"`
	Seen    uint64 `json:"seen"`
	Kept    uint64 `json:"kept"`
	Dropped uint64 `json:"dropped"`
}

// Stats is a point-in-time journal summary.
type Stats struct {
	Kept    uint64       `json:"kept"`
	Dropped uint64       `json:"dropped"`
	Stages  []StageStats `json:"stages,omitempty"`
}

// Stats reports totals plus per-stage sampling counters (stages sorted by
// name; only stages that saw Debug traffic appear).
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Stats{Kept: j.seq, Dropped: j.dropped}
	for name, st := range j.stages {
		s.Stages = append(s.Stages, StageStats{
			Stage: name, Seen: st.seen, Kept: st.kept, Dropped: st.dropped,
		})
	}
	sort.Slice(s.Stages, func(a, b int) bool { return s.Stages[a].Stage < s.Stages[b].Stage })
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

// Enabled reports whether the underlying journal would keep level l.
func (s *Scope) Enabled(l Level) bool { return s != nil && s.j.Enabled(l) }

// Corr returns the scope's correlation ID ("" on nil).
func (s *Scope) Corr() string {
	if s == nil {
		return ""
	}
	return s.corr
}

// Run returns the scope's run ID ("" on nil).
func (s *Scope) Run() string {
	if s == nil {
		return ""
	}
	return s.run
}
