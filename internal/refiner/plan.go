package refiner

import (
	"fmt"
	"strings"
	"time"

	"aptrace/internal/bdl"
	"aptrace/internal/event"
)

// Plan is the compiled, executable form of a BDL script: the "metadata"
// the Refiner hands to the Executor in Figure 3 of the paper.
type Plan struct {
	Script *bdl.Script

	// Resolved general constraints. From/To are Unix seconds; zero means
	// "unbounded" and the executor substitutes the store's history bounds.
	From, To int64
	// Hosts are patterns from the "in" clause; empty means all hosts.
	Hosts []Pattern

	// Forward selects impact tracking (follow the data forward) instead
	// of provenance tracking.
	Forward bool

	// Start matches the starting-point event (the anomaly alert).
	Start *NodeMatcher
	// Chain holds the matchers for n2..nk in order. If the script's end
	// point is "*", Chain stops at n_{k-1} and EndWildcard is true.
	Chain       []*NodeMatcher
	EndWildcard bool

	// Where is the compiled object filter; nil if the script has no
	// where statement (beyond budgets).
	Where *WhereFilter

	// Budgets extracted from the where statement. Zero means unlimited.
	TimeBudget time.Duration // "time <= 10mins"
	HopBudget  int           // "hop <= 25"

	// Prioritize rules (Program 2 style).
	Prioritize []*PriorityRule

	// Output is the DOT path from the output clause ("" if none).
	Output string
}

// Compile validates a parsed script and produces its Plan.
func Compile(s *bdl.Script) (*Plan, error) {
	p := &Plan{Script: s, Forward: s.Forward}
	if s.From != nil {
		p.From, p.To = s.From.Unix, s.To.Unix
	}
	for _, h := range s.Hosts {
		p.Hosts = append(p.Hosts, CompilePattern(h))
	}

	start, err := compileNode(s.Start())
	if err != nil {
		return nil, err
	}
	p.Start = start

	rest := s.Track[1:]
	for _, n := range rest {
		if n.Wildcard {
			// The parser guarantees only the end point can be "*".
			p.EndWildcard = true
			break
		}
		m, err := compileNode(n)
		if err != nil {
			return nil, err
		}
		p.Chain = append(p.Chain, m)
	}

	if s.Where != nil {
		w, budgets, err := compileWhere(s.Where)
		if err != nil {
			return nil, err
		}
		p.Where = w
		p.TimeBudget = budgets.time
		p.HopBudget = budgets.hop
	}

	for _, pr := range s.Prioritize {
		rule, err := compilePriority(pr)
		if err != nil {
			return nil, err
		}
		p.Prioritize = append(p.Prioritize, rule)
	}
	p.Output = s.Output
	return p, nil
}

// ParseAndCompile parses BDL source and compiles it in one step.
func ParseAndCompile(src string) (*Plan, error) {
	s, err := bdl.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(s)
}

// HostAllowed reports whether the general "in" constraint admits a host.
// The empty host names a global object (network sockets are observed by both
// endpoints and carry no host) and is always admitted.
func (p *Plan) HostAllowed(host string) bool {
	if len(p.Hosts) == 0 || host == "" {
		return true
	}
	for _, h := range p.Hosts {
		if h.Match(host) {
			return true
		}
	}
	return false
}

// FilterFingerprint returns a canonical rendering of every plan component
// that decides which candidates survive edge evaluation: tracking direction,
// host patterns, and the compiled where-filter text (budgets excluded — they
// stop a run but never change a per-candidate verdict). Two plans with equal
// fingerprints make identical filter decisions for the same (object, window)
// query; result caches key on this string so a cached result computed under
// one filter is never served to a run using a different one.
func (p *Plan) FilterFingerprint() string {
	var sb strings.Builder
	if p.Forward {
		sb.WriteString("forward")
	} else {
		sb.WriteString("backward")
	}
	sb.WriteString("|in=")
	for i, h := range p.Hosts {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(h.String())
	}
	sb.WriteString("|where=")
	sb.WriteString(p.Where.Source())
	return sb.String()
}

// Range resolves the plan's time range against the store's history bounds.
func (p *Plan) Range(storeMin, storeMax int64) (from, to int64) {
	from, to = p.From, p.To
	if from == 0 {
		from = storeMin
	}
	if to == 0 {
		to = storeMax + 1 // half-open upper bound includes the last event
	}
	return from, to
}

// MatchStart reports whether e is an acceptable starting-point event: its
// flow-destination object satisfies the start node's type and conditions,
// and both endpoint hosts pass the "in" constraint.
func (p *Plan) MatchStart(e event.Event, env Env) (bool, error) {
	if !p.HostAllowed(env.ObjectRef(e.Subject).Host) || !p.HostAllowed(env.ObjectRef(e.Object).Host) {
		return false, nil
	}
	from, to := p.From, p.To
	return p.Start.Match(e, e.Dst(), env, from, to)
}

// FindStart scans the store's time range for the first event matching the
// starting point. It is used by the CLI, where the analyst specifies the
// alert only through the BDL script; experiment harnesses pass the alert
// event directly instead.
func (p *Plan) FindStart(st Scanner, env Env) (event.Event, error) {
	min, max, ok := st.TimeRange()
	if !ok {
		return event.Event{}, fmt.Errorf("refiner: store is empty")
	}
	from, to := p.Range(min, max)
	var found event.Event
	var matchErr error
	err := st.Scan(from, to, func(e event.Event) bool {
		ok, err := p.MatchStart(e, env)
		if err != nil {
			matchErr = err
			return false
		}
		if ok {
			found = e
			return false
		}
		return true
	})
	if err != nil {
		return event.Event{}, err
	}
	if matchErr != nil {
		return event.Event{}, matchErr
	}
	if found.ID == 0 {
		return event.Event{}, fmt.Errorf("refiner: no event matches the starting point %s", bdl.FormatExpr(p.Start.src.Cond))
	}
	return found, nil
}

// Scanner is the subset of the store used by FindStart.
type Scanner interface {
	TimeRange() (min, max int64, ok bool)
	Scan(from, to int64, fn func(event.Event) bool) error
}

// NumHeuristics counts the analyst-supplied heuristics in the plan, the
// quantity Table I reports: where-statement object constraints, intermediate
// points, and prioritize rules. Budgets (time/hop) and the mandatory start/
// end declarations are not counted.
func (p *Plan) NumHeuristics() int {
	n := len(p.Prioritize) + len(p.Chain)
	if p.EndWildcard && len(p.Chain) > 0 {
		// Chain includes only intermediates when the end is "*".
	} else if !p.EndWildcard && len(p.Chain) > 0 {
		n-- // the end point is a goal, not a pruning heuristic
	}
	if p.Where != nil {
		n += p.Where.NumConstraints()
	}
	return n
}
