package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aptrace/internal/telemetry"
)

// Counts is a snapshot of the daemon's cumulative counters, taken by the
// watchdog at every tick. Rate stats are computed from the delta between
// consecutive snapshots; level stats (detect stall, queue saturation) read
// the current snapshot directly.
type Counts struct {
	// Submissions is sessions ever accepted; Rejected is 429s ever
	// returned.
	Submissions int64
	Rejected    int64
	// UpdatesPublished is graph updates ever published; UpdatesDropped
	// is per-subscriber SSE drops.
	UpdatesPublished int64
	UpdatesDropped   int64
	// IngestLines is audit lines ever seen; DecodeErrors is lines that
	// failed to decode.
	IngestLines  int64
	DecodeErrors int64
	// MemoHits / MemoMisses are memo cache lookups.
	MemoHits   int64
	MemoMisses int64
	// LastDetect is when the last detection pass finished (zero: never).
	LastDetect time.Time
	// QueueLen / QueueCap describe the fleet runner's bounded queue.
	QueueLen int
	QueueCap int
}

// Watchdog stat names.
const (
	StatQuota429Rate    = "quota_429_rate"    // rejected / (accepted+rejected) over the tick window
	StatSSEDropRate     = "sse_drop_rate"     // subscriber drops / updates published over the window
	StatDecodeErrorRate = "decode_error_rate" // decode errors / ingest lines over the window
	StatMemoHitRate     = "memo_hit_rate"     // hits / lookups over the window (floor rule)
	StatDetectStall     = "detect_stall"      // seconds since the last detection pass
	StatQueueSaturation = "queue_saturation"  // fleet queue length / capacity
)

// knownStats maps every stat name to whether its threshold is a duration.
var knownStats = map[string]bool{
	StatQuota429Rate:    false,
	StatSSEDropRate:     false,
	StatDecodeErrorRate: false,
	StatMemoHitRate:     false,
	StatDetectStall:     true,
	StatQueueSaturation: false,
}

// Minimum per-window activity before a rate rule can fire, so one rejected
// probe on an idle daemon does not page anyone.
const (
	minRateSamples = 8
	minMemoLookups = 16
)

// Rule is one SLO threshold: alert when the stat exceeds (or, with Less,
// falls below) Threshold. Duration stats carry the threshold in seconds.
type Rule struct {
	Stat      string  `json:"stat"`
	Less      bool    `json:"less,omitempty"`
	Threshold float64 `json:"threshold"`
}

// String renders the rule in ParseRules syntax.
func (r Rule) String() string {
	op := ">"
	if r.Less {
		op = "<"
	}
	if knownStats[r.Stat] {
		return fmt.Sprintf("%s%s%s", r.Stat, op, time.Duration(r.Threshold*float64(time.Second)).Round(time.Millisecond))
	}
	return fmt.Sprintf("%s%s%g", r.Stat, op, r.Threshold)
}

// DefaultRules are the shipped SLO thresholds.
var DefaultRules = []Rule{
	{Stat: StatQuota429Rate, Threshold: 0.5},
	{Stat: StatSSEDropRate, Threshold: 0.2},
	{Stat: StatDecodeErrorRate, Threshold: 0.05},
	{Stat: StatMemoHitRate, Less: true, Threshold: 0.05},
	{Stat: StatDetectStall, Threshold: 30},
	{Stat: StatQueueSaturation, Threshold: 0.9},
}

// ParseRules parses a comma-separated rule list, e.g.
//
//	quota_429_rate>0.5,memo_hit_rate<0.1,detect_stall>30s
//
// Duration-valued stats accept time.ParseDuration syntax or plain seconds.
// An empty spec returns DefaultRules; "off" and "none" return nil (no
// watchdog rules).
func ParseRules(spec string) ([]Rule, error) {
	spec = strings.TrimSpace(spec)
	switch spec {
	case "":
		return DefaultRules, nil
	case "off", "none":
		return nil, nil
	}
	var rules []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		op := strings.IndexAny(part, "<>")
		if op < 0 {
			return nil, fmt.Errorf("obs: rule %q: want stat>threshold or stat<threshold", part)
		}
		stat, val := strings.TrimSpace(part[:op]), strings.TrimSpace(part[op+1:])
		isDur, ok := knownStats[stat]
		if !ok {
			names := make([]string, 0, len(knownStats))
			for n := range knownStats {
				names = append(names, n)
			}
			sort.Strings(names)
			return nil, fmt.Errorf("obs: rule %q: unknown stat %q (known: %s)", part, stat, strings.Join(names, ", "))
		}
		var thr float64
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			thr = f
		} else if isDur {
			d, derr := time.ParseDuration(val)
			if derr != nil {
				return nil, fmt.Errorf("obs: rule %q: bad threshold %q", part, val)
			}
			thr = d.Seconds()
		} else {
			return nil, fmt.Errorf("obs: rule %q: bad threshold %q", part, val)
		}
		if thr < 0 {
			return nil, fmt.Errorf("obs: rule %q: negative threshold", part)
		}
		rules = append(rules, Rule{Stat: stat, Less: part[op] == '<', Threshold: thr})
	}
	return rules, nil
}

// Violation is one fired rule.
type Violation struct {
	At        time.Time `json:"at"`
	Stat      string    `json:"stat"`
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Less      bool      `json:"less,omitempty"`
	Msg       string    `json:"msg"`
}

// maxRecentViolations bounds the /ops violation ring.
const maxRecentViolations = 64

// Watchdog periodically snapshots the daemon's counters and evaluates the
// SLO rules, journaling a Warn "ops.alert" entry and ticking
// aptrace_ops_alerts_total per violation. The daemon watching itself: no
// external prober needed.
type Watchdog struct {
	j      *Journal
	rules  []Rule
	counts func() Counts
	tel    *telemetry.Counter

	mu       sync.Mutex
	prev     Counts
	havePrev bool
	recent   []Violation
	total    int64
	stop     chan struct{}
	done     chan struct{}
}

// NewWatchdog builds a watchdog over the counts snapshot function. A nil
// rules slice means no rules (ticks still record baselines). The journal
// may be nil; violations then surface only via telemetry and Recent.
func NewWatchdog(j *Journal, reg *telemetry.Registry, rules []Rule, counts func() Counts) *Watchdog {
	return &Watchdog{
		j:      j,
		rules:  rules,
		counts: counts,
		tel:    reg.Counter(telemetry.MetricOpsAlerts),
	}
}

// Rules returns the active rule set.
func (w *Watchdog) Rules() []Rule {
	if w == nil {
		return nil
	}
	return w.rules
}

// Tick takes one counter snapshot and evaluates every rule against the
// window since the previous snapshot. The first tick only records the
// baseline. Exposed so tests and experiments can drive evaluation without
// a goroutine.
func (w *Watchdog) Tick(now time.Time) []Violation {
	if w == nil {
		return nil
	}
	cur := w.counts()
	w.mu.Lock()
	prev, have := w.prev, w.havePrev
	w.prev, w.havePrev = cur, true
	w.mu.Unlock()
	if !have {
		return nil
	}
	vals := windowStats(prev, cur, now)
	var fired []Violation
	for _, r := range w.rules {
		sv, ok := vals[r.Stat]
		if !ok {
			continue
		}
		if (r.Less && sv < r.Threshold) || (!r.Less && sv > r.Threshold) {
			op := "above"
			if r.Less {
				op = "below"
			}
			fired = append(fired, Violation{
				At: now, Stat: r.Stat, Value: sv, Threshold: r.Threshold, Less: r.Less,
				Msg: fmt.Sprintf("%s=%.4g %s threshold %.4g", r.Stat, sv, op, r.Threshold),
			})
		}
	}
	if len(fired) == 0 {
		return nil
	}
	w.mu.Lock()
	w.total += int64(len(fired))
	w.recent = append(w.recent, fired...)
	if n := len(w.recent) - maxRecentViolations; n > 0 {
		w.recent = append(w.recent[:0], w.recent[n:]...)
	}
	w.mu.Unlock()
	for _, v := range fired {
		w.tel.Inc()
		w.j.Emit(Warn, StageOpsAlert, "", "", v.Msg, 0, 0)
	}
	return fired
}

// windowStats derives every evaluable stat from the (prev, cur) window.
// Stats without enough activity in the window are omitted, so rules over
// them cannot fire on noise.
func windowStats(prev, cur Counts, now time.Time) map[string]float64 {
	vals := make(map[string]float64, len(knownStats))
	if attempts := (cur.Submissions + cur.Rejected) - (prev.Submissions + prev.Rejected); attempts >= minRateSamples {
		vals[StatQuota429Rate] = float64(cur.Rejected-prev.Rejected) / float64(attempts)
	}
	if pub := cur.UpdatesPublished - prev.UpdatesPublished; pub >= minRateSamples {
		vals[StatSSEDropRate] = float64(cur.UpdatesDropped-prev.UpdatesDropped) / float64(pub)
	}
	if lines := cur.IngestLines - prev.IngestLines; lines >= minRateSamples {
		vals[StatDecodeErrorRate] = float64(cur.DecodeErrors-prev.DecodeErrors) / float64(lines)
	}
	if lookups := (cur.MemoHits + cur.MemoMisses) - (prev.MemoHits + prev.MemoMisses); lookups >= minMemoLookups {
		vals[StatMemoHitRate] = float64(cur.MemoHits-prev.MemoHits) / float64(lookups)
	}
	if !cur.LastDetect.IsZero() {
		vals[StatDetectStall] = now.Sub(cur.LastDetect).Seconds()
	}
	if cur.QueueCap > 0 {
		vals[StatQueueSaturation] = float64(cur.QueueLen) / float64(cur.QueueCap)
	}
	return vals
}

// Start launches the tick loop. Stop with Stop.
func (w *Watchdog) Start(every time.Duration) {
	if w == nil || every <= 0 {
		return
	}
	w.mu.Lock()
	if w.stop != nil {
		w.mu.Unlock()
		return
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	stop, done := w.stop, w.done
	w.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				w.Tick(now)
			}
		}
	}()
}

// Stop halts the tick loop and waits for it to exit. Safe to call twice or
// without Start.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop, w.done = nil, nil
	w.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Summary is the watchdog's /ops view.
type Summary struct {
	Rules  []string    `json:"rules"`
	Alerts int64       `json:"alerts_total"`
	Recent []Violation `json:"recent,omitempty"`
}

// Summarize reports the rule set, total fired alerts, and the most recent
// violations (newest last).
func (w *Watchdog) Summarize() Summary {
	if w == nil {
		return Summary{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := Summary{Alerts: w.total}
	for _, r := range w.rules {
		s.Rules = append(s.Rules, r.String())
	}
	s.Recent = append(s.Recent, w.recent...)
	return s
}
