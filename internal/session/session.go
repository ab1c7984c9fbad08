// Package session implements the interactive analysis loop of Figure 3:
// an analyst starts backtracking from a BDL script, watches the dependency
// graph grow through responsive updates, pauses, edits the script, and
// resumes. The session routes script changes through the Refiner's
// compatibility check, reusing as much of the paused analysis as the change
// allows (resume / re-propagate / restart), and records the timestamp of
// every update for the responsiveness metrics of Table II.
package session

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/graph"
	"aptrace/internal/maintainer"
	"aptrace/internal/refiner"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

// Session drives one investigation over a sealed store.
type Session struct {
	st   *store.Store
	opts core.Options

	mu      sync.Mutex
	script  *bdl.Script
	plan    *refiner.Plan
	x       *core.Executor
	alert   event.Event
	restart *refiner.Plan // pending restart plan, consumed by the run loop
	running bool

	updateAt []time.Time // when each update landed, on the analysis clock
	onUpdate func(graph.Update)

	telUpdates *telemetry.Counter
	telPauses  *telemetry.Counter
	telResumes *telemetry.Counter

	done chan struct{}
	res  *core.Result
	err  error
}

// New creates a session over the store. opts.OnUpdate, if set, receives
// every update; the session itself keeps only their times. opts.Telemetry,
// if set, additionally counts emitted updates and pause/resume actions;
// opts.Explain, if set, logs each pause and resume, and its trace shows each
// pause as a span lasting until the matching resume (or the run's end).
func New(st *store.Store, opts core.Options) *Session {
	s := &Session{st: st, opts: opts, onUpdate: opts.OnUpdate}
	s.opts.OnUpdate = s.record
	s.telUpdates = opts.Telemetry.Counter(telemetry.MetricSessionUpdates)
	s.telPauses = opts.Telemetry.Counter(telemetry.MetricSessionPauses)
	s.telResumes = opts.Telemetry.Counter(telemetry.MetricSessionResumes)
	return s
}

func (s *Session) record(u graph.Update) {
	s.mu.Lock()
	s.updateAt = append(s.updateAt, u.At)
	s.mu.Unlock()
	s.telUpdates.Inc()
	if s.onUpdate != nil {
		s.onUpdate(u)
	}
}

// Start parses and compiles the script, resolves the starting point, and
// launches backtracking in the background. If alert is nil the starting
// event is located by scanning the store for a match of the script's
// starting point (how the CLI operates); experiment harnesses pass the
// alert event directly.
func (s *Session) Start(scriptSrc string, alert *event.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("session: already running")
	}
	script, err := bdl.Parse(scriptSrc)
	if err != nil {
		return err
	}
	plan, err := refiner.Compile(script)
	if err != nil {
		return err
	}
	var a event.Event
	if alert != nil {
		a = *alert
		ok, err := plan.MatchStart(a, s.st)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("session: the given alert does not satisfy the script's starting point")
		}
	} else {
		if a, err = plan.FindStart(s.st, s.st); err != nil {
			return err
		}
	}
	x, err := core.New(s.st, plan, s.opts)
	if err != nil {
		return err
	}
	// Prepare synchronously so Graph() is valid the moment Start returns.
	if err := x.Prepare(a); err != nil {
		return err
	}
	s.script, s.plan, s.x, s.alert = script, plan, x, a
	s.running = true
	s.done = make(chan struct{})
	go s.runLoop()
	return nil
}

// runLoop owns the executor lifecycle, honoring restarts requested by
// UpdateScript (a changed starting point abandons the current analysis).
func (s *Session) runLoop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		x, alert := s.x, s.alert
		s.mu.Unlock()

		res, err := x.RunUnchecked(alert)

		s.mu.Lock()
		if err == nil && s.restart != nil {
			// A restart was requested: clear the recorded graph state
			// and begin again with the new plan and starting point.
			plan := s.restart
			s.restart = nil
			a, ferr := plan.FindStart(s.st, s.st)
			if ferr != nil {
				s.res, s.err = nil, ferr
				s.running = false
				s.mu.Unlock()
				return
			}
			nx, nerr := core.New(s.st, plan, s.opts)
			if nerr == nil {
				nerr = nx.Prepare(a)
			}
			if nerr != nil {
				s.res, s.err = nil, nerr
				s.running = false
				s.mu.Unlock()
				return
			}
			s.plan, s.x, s.alert = plan, nx, a
			s.mu.Unlock()
			continue
		}
		s.res, s.err = res, err
		s.running = false
		s.mu.Unlock()
		return
	}
}

// Pause suspends exploration; the dependency graph stays inspectable.
func (s *Session) Pause() {
	s.mu.Lock()
	x := s.x
	s.mu.Unlock()
	if x != nil {
		x.Pause()
		s.telPauses.Inc()
		s.opts.Explain.Pause()
	}
}

// Resume continues a paused exploration.
func (s *Session) Resume() {
	s.mu.Lock()
	x := s.x
	s.mu.Unlock()
	if x != nil {
		x.Resume()
		s.telResumes.Inc()
		s.opts.Explain.Resume()
	}
}

// Stop terminates the analysis; Wait returns the final result.
func (s *Session) Stop() {
	s.mu.Lock()
	x := s.x
	s.mu.Unlock()
	if x != nil {
		x.Stop()
	}
}

// UpdateScript applies a new version of the BDL script, typically while
// paused. It returns the Refiner's decision:
//
//   - Resume: filters/budgets changed; exploration continues, keeping the
//     graph and the queue.
//   - Repropagate: intermediate points changed; the cached graph is kept and
//     node states recomputed before continuing.
//   - Restart: the starting point changed; the current analysis is
//     abandoned and a fresh one begins from the new starting point.
//
// The session stays paused or running exactly as it was; call Resume to
// continue a paused session.
func (s *Session) UpdateScript(scriptSrc string) (refiner.ResumeAction, error) {
	script, err := bdl.Parse(scriptSrc)
	if err != nil {
		return 0, err
	}
	plan, err := refiner.Compile(script)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.x == nil {
		return 0, errors.New("session: not started")
	}
	action := refiner.Delta(s.script, script)
	delta := scriptDelta(s.script, script)
	s.script = script
	switch action {
	case refiner.Restart:
		if !s.running {
			return 0, errors.New("session: analysis already finished; start a new session")
		}
		s.restart = plan
		s.x.Stop() // run loop picks up the restart
	default:
		// UpdatePlan waits for the run loop to park, and the loop cannot
		// park while one of its OnUpdate callbacks (record, or the analyst's
		// own calling back into the session) is blocked on s.mu: wait
		// unlocked.
		x := s.x
		s.mu.Unlock()
		err := x.UpdatePlan(plan, action)
		s.mu.Lock()
		if err != nil {
			return 0, err
		}
		s.plan = plan
	}
	s.opts.Explain.PlanUpdate(action.String(), delta)
	return action, nil
}

// scriptDelta summarizes what changed between two script versions — the
// human-readable side of the Refiner's resume decision, recorded in the
// plan-update decision record.
func scriptDelta(old, new *bdl.Script) string {
	if old == nil {
		return "initial script"
	}
	var parts []string
	if !bdl.SameStart(old, new) {
		parts = append(parts, "starting point changed")
	}
	if !bdl.SameIntermediates(old, new) {
		parts = append(parts, "intermediate points changed")
	}
	if !bdl.EqualExpr(old.Where, new.Where) {
		nw := "(removed)"
		if new.Where != nil {
			nw = "`" + bdl.FormatExpr(new.Where) + "`"
		}
		parts = append(parts, "where -> "+nw)
	}
	if prioritizeText(old) != prioritizeText(new) {
		parts = append(parts, "prioritize rules changed")
	}
	if strings.Join(old.Hosts, ",") != strings.Join(new.Hosts, ",") {
		parts = append(parts, "host constraint changed")
	}
	if rangeText(old) != rangeText(new) {
		parts = append(parts, "analysis range changed")
	}
	if old.Output != new.Output {
		parts = append(parts, "output changed")
	}
	if len(parts) == 0 {
		return "no structural change"
	}
	return strings.Join(parts, "; ")
}

func prioritizeText(s *bdl.Script) string {
	var sb strings.Builder
	for _, pr := range s.Prioritize {
		sb.WriteString(bdl.FormatExpr(pr.Target))
		sb.WriteString("<-")
		sb.WriteString(bdl.FormatExpr(pr.Source))
		sb.WriteString(";")
	}
	return sb.String()
}

func rangeText(s *bdl.Script) string {
	if s.From == nil {
		return ""
	}
	return s.From.Raw + ".." + s.To.Raw
}

// Wait blocks until the analysis finishes (completed, budget expired, or
// stopped) and returns the executor's result.
func (s *Session) Wait() (*core.Result, error) {
	s.mu.Lock()
	done := s.done
	s.mu.Unlock()
	if done == nil {
		return nil, errors.New("session: not started")
	}
	<-done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res, s.err
}

// Graph returns the current dependency graph (nil before Start).
func (s *Session) Graph() *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.x == nil {
		return nil
	}
	return s.x.Graph()
}

// UpdateTimes returns the timestamps of the updates so far — the series
// whose consecutive deltas are the paper's "waiting time between updates".
// The updates themselves go to opts.OnUpdate; the session keeps no copy.
func (s *Session) UpdateTimes() []time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Time(nil), s.updateAt...)
}

// Finalize applies the tracking statement's path pruning to the finished
// graph (removing paths that bypass the declared intermediate points) and,
// if the script has an output clause, writes the DOT rendering there.
// It returns the number of pruned edges.
func (s *Session) Finalize() (int, error) {
	s.mu.Lock()
	plan, x := s.plan, s.x
	s.mu.Unlock()
	if x == nil || x.Graph() == nil {
		return 0, errors.New("session: nothing to finalize")
	}
	min, max, _ := s.st.TimeRange()
	from, to := plan.Range(min, max)
	m := maintainer.New(plan, s.st, from, to)
	g := x.Graph()
	if err := m.Recalculate(g); err != nil {
		return 0, err
	}
	removed := m.Prune(g)
	s.st.FlushQueryProfile() // the recalculation queried after the run's own flush
	s.opts.Explain.Finalize(removed)
	if plan.Output != "" {
		f, err := os.Create(plan.Output)
		if err != nil {
			return removed, fmt.Errorf("session: write output: %w", err)
		}
		defer f.Close()
		if err := graph.WriteDOT(f, g, s.st.Object); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
