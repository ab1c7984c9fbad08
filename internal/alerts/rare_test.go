package alerts

import (
	"fmt"
	"sort"
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/workload"
)

// topPairs returns the n most frequent learned pairs formatted as
// "parent->child".
func topPairs(r *RareChildRule, n int) []string {
	type pc struct {
		p startPair
		c int
	}
	all := make([]pc, 0, len(r.counts))
	for p, c := range r.counts {
		all = append(all, pc{p, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		if all[i].p.parent != all[j].p.parent {
			return all[i].p.parent < all[j].p.parent
		}
		return all[i].p.child < all[j].p.child
	})
	out := make([]string, 0, n)
	for _, e := range all[:min(n, len(all))] {
		out = append(out, fmt.Sprintf("%s->%s", e.p.parent, e.p.child))
	}
	return out
}

func TestRareChildRuleLearnsAndDetects(t *testing.T) {
	ds, err := workload.Generate(workload.Config{Seed: 13, Hosts: 5, Days: 4, Density: 0.6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	min, max, _ := ds.Store.TimeRange()
	// Train on the first half (attacks are injected in the second half).
	mid := min + (max-min)/2
	rule, err := TrainRareChildRule(ds.Store, min, mid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rule.counts) < 5 {
		t.Fatalf("learned only %d pairs", len(rule.counts))
	}
	// The common benign parentage must be among the top pairs.
	top := topPairs(rule, 5)
	found := false
	for _, p := range top {
		if p == "explorer.exe->chrome.exe" || p == "explorer.exe->notepad.exe" ||
			p == "explorer.exe->excel.exe" || p == "explorer.exe->winword.exe" ||
			p == "explorer.exe->outlook.exe" {
			found = true
		}
	}
	if !found {
		t.Errorf("top pairs lack explorer sessions: %v", top)
	}

	// Scan the attack half: the injected attack parentage must be flagged.
	det := NewDetector(rule)
	alerts, err := det.Scan(ds.Store, mid, max+1)
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, a := range alerts {
		parent := ds.Store.Object(a.Event.Subject).Exe
		child := ds.Store.Object(a.Event.Object).Exe
		flagged[parent+"->"+child] = true
	}
	for _, want := range []string{
		"excel.exe->java.exe",   // phishing drop
		"sqlservr.exe->cmd.exe", // excel-macro shell
		"httpd->bash",           // shellshock
		"sshd->backdoor.bin",    // cheating student
	} {
		if !flagged[want] {
			t.Errorf("attack parentage %s not flagged", want)
		}
	}

	// Benign parentage that was well represented in training must NOT be
	// flagged (false-positive control).
	if flagged["explorer.exe->chrome.exe"] {
		t.Error("common benign parentage flagged")
	}
}

func TestRareChildRuleMaxSeen(t *testing.T) {
	s := buildStore(t)
	// Train on the whole store: chrome->cmd and sqlservr->cmd each occur
	// once.
	rule, err := TrainRareChildRule(s, 0, 1<<62, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With MaxSeen 0, pairs seen once are not rare.
	startEv := eventAtTime(t, s, 100)
	if _, _, hit := rule.Check(startEv, s); hit {
		t.Error("pair seen once must pass MaxSeen=0 after training on itself")
	}
	// With MaxSeen 1, pairs seen once are flagged at Medium.
	rule.MaxSeen = 1
	msg, sev, hit := rule.Check(startEv, s)
	if !hit || sev != Medium || msg == "" {
		t.Errorf("MaxSeen=1: hit=%v sev=%v", hit, sev)
	}
	// Non-start events never hit.
	writeEv := eventAtTime(t, s, 300)
	if _, _, hit := rule.Check(writeEv, s); hit {
		t.Error("non-start event flagged")
	}
	// Untrained rule never hits.
	var empty RareChildRule
	if _, _, hit := empty.Check(startEv, s); hit {
		t.Error("untrained rule must not hit")
	}
}

func eventAtTime(t *testing.T, s interface {
	Scan(from, to int64, fn func(event.Event) bool) error
}, tm int64) event.Event {
	t.Helper()
	var found event.Event
	s.Scan(tm, tm+1, func(e event.Event) bool { found = e; return false })
	if found.ID == 0 {
		t.Fatalf("no event at t=%d", tm)
	}
	return found
}
