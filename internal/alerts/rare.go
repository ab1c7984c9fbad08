package alerts

import (
	"fmt"

	"aptrace/internal/event"
	"aptrace/internal/store"
)

// RareChildRule is a learned rule in the spirit of the anomaly-based pruning
// systems the paper cites (PrioTracker, NoDoze): instead of a hard-coded
// daemon/shell list, it learns the frequency of (parent executable, child
// executable) process-start pairs over a training window and flags starts of
// pairs that were never — or almost never — seen before.
//
// Train it on a historical window that is assumed mostly benign; Check then
// scores events anywhere. This catches what fixed rules cannot (any unusual
// parentage, not just daemons spawning shells) at the cost of needing
// training data — the classic trade the paper discusses in Related Work.
type RareChildRule struct {
	// MaxSeen is the highest training-window occurrence count that still
	// counts as rare. 0 flags only never-seen pairs.
	MaxSeen int

	counts map[startPair]int
	total  int
}

type startPair struct {
	parent, child string
}

// TrainRareChildRule learns pair frequencies from st over [from, to).
func TrainRareChildRule(st *store.Store, from, to int64, maxSeen int) (*RareChildRule, error) {
	r := &RareChildRule{MaxSeen: maxSeen, counts: make(map[startPair]int)}
	err := st.Scan(from, to, func(e event.Event) bool {
		if e.Action != event.ActStart {
			return true
		}
		p := startPair{st.Object(e.Subject).Exe, st.Object(e.Object).Exe}
		r.counts[p]++
		r.total++
		return true
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Name implements Rule.
func (*RareChildRule) Name() string { return "rare-child" }

// Check implements Rule: a process start whose (parent, child) pair occurred
// at most MaxSeen times in training is anomalous.
func (r *RareChildRule) Check(e event.Event, st *store.Store) (string, Severity, bool) {
	if e.Action != event.ActStart || r.counts == nil {
		return "", 0, false
	}
	p := startPair{st.Object(e.Subject).Exe, st.Object(e.Object).Exe}
	seen := r.counts[p]
	if seen > r.MaxSeen {
		return "", 0, false
	}
	sev := Medium
	if seen == 0 {
		sev = High
	}
	return fmt.Sprintf("unusual process parentage: %s started %s (seen %d times in training)",
		p.parent, p.child, seen), sev, true
}
