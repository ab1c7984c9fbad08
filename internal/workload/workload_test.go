package workload

import (
	"strings"
	"testing"
	"time"

	"aptrace/internal/baseline"
	"aptrace/internal/core"
	"aptrace/internal/event"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
)

func smallConfig() Config {
	return Config{Seed: 7, Hosts: 5, Days: 3, Density: 0.5}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Store.NumEvents() != b.Store.NumEvents() || a.Store.NumObjects() != b.Store.NumObjects() {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d events/objects",
			a.Store.NumEvents(), a.Store.NumObjects(), b.Store.NumEvents(), b.Store.NumObjects())
	}
	for i := 0; i < a.Store.NumEvents(); i++ {
		if a.Store.EventAt(i) != b.Store.EventAt(i) {
			t.Fatalf("event %d differs between runs", i)
		}
	}
	if len(a.Attacks) != 5 {
		t.Fatalf("attacks = %d, want 5", len(a.Attacks))
	}
}

func TestGenerateScale(t *testing.T) {
	ds, err := Generate(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := ds.Store.NumEvents()
	// 5 workstations * 3 days * ~1000 (density 0.5) plus servers/attacks.
	if n < 10_000 || n > 80_000 {
		t.Fatalf("suspicious event count %d", n)
	}
	min, max, ok := ds.Store.TimeRange()
	if !ok || max <= min {
		t.Fatal("empty time range")
	}
	if got := time.Duration(max-min) * time.Second; got > time.Duration(ds.Config.Days)*24*time.Hour {
		t.Fatalf("history span %v exceeds %d days", got, ds.Config.Days)
	}
}

func TestAttackGroundTruth(t *testing.T) {
	ds, err := Generate(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, atk := range ds.Attacks {
		names[atk.Name] = true
		alert, ok := ds.Store.EventByID(atk.AlertID)
		if !ok {
			t.Fatalf("%s: alert %d not in store", atk.Name, atk.AlertID)
		}
		if len(atk.ChainIDs) < 4 {
			t.Errorf("%s: chain too short (%d)", atk.Name, len(atk.ChainIDs))
		}
		for _, id := range atk.ChainIDs {
			if _, ok := ds.Store.EventByID(id); !ok {
				t.Errorf("%s: chain event %d missing", atk.Name, id)
			}
		}
		if len(atk.Scripts) < 2 {
			t.Errorf("%s: wants at least v1 and v2 scripts", atk.Name)
		}
		if atk.Heuristics < 2 {
			t.Errorf("%s: heuristics = %d", atk.Name, atk.Heuristics)
		}
		// Every script version must compile, and its start must match
		// the recorded alert event.
		for vi, src := range atk.Scripts {
			plan, err := refiner.ParseAndCompile(src)
			if err != nil {
				t.Fatalf("%s v%d: %v\n%s", atk.Name, vi+1, err, src)
			}
			ok, err := plan.MatchStart(alert, ds.Store)
			if err != nil {
				t.Fatalf("%s v%d MatchStart: %v", atk.Name, vi+1, err)
			}
			if !ok {
				t.Errorf("%s v%d: alert does not satisfy the script's starting point", atk.Name, vi+1)
			}
		}
		// The root cause object must exist.
		found := false
		for _, o := range ds.Store.Objects() {
			if o.Key() == atk.RootCause {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: root cause object %v not in store", atk.Name, atk.RootCause)
		}
	}
	for _, want := range []string{"phishing", "excel-macro", "shellshock", "cheating-student", "wget-gcc"} {
		if !names[want] {
			t.Errorf("attack %s missing", want)
		}
	}
}

func TestUnknownAttackRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Attacks = []string{"nonexistent"}
	if _, err := Generate(cfg, nil); err == nil {
		t.Fatal("unknown attack name must fail")
	}
}

// TestTooManyShardsRejected: a part count the store cannot hold is an error
// from Generate, not a panic inside store.New.
func TestTooManyShardsRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Shards = store.MaxShards + 1
	if _, err := Generate(cfg, nil); err == nil || !strings.Contains(err.Error(), "exceeds store.MaxShards") {
		t.Fatalf("Generate with %d shards: err = %v, want a MaxShards error", cfg.Shards, err)
	}
}

func TestAttackSubset(t *testing.T) {
	cfg := smallConfig()
	cfg.Attacks = []string{"phishing"}
	ds, err := Generate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Attacks) != 1 || ds.Attacks[0].Name != "phishing" {
		t.Fatalf("attacks = %+v", ds.Attacks)
	}
}

// TestPhishingInvestigation replays the paper's A1 narrative end to end:
// the final script version finds the root cause quickly and with a small
// graph, while the unoptimized baseline explodes.
func TestPhishingInvestigation(t *testing.T) {
	clk := simclock.NewSimulated(time.Time{})
	ds, err := Generate(smallConfig(), clk)
	if err != nil {
		t.Fatal(err)
	}
	atk := ds.Attacks[0]
	if atk.Name != "phishing" {
		t.Fatal("attack order changed")
	}
	alert, _ := ds.Store.EventByID(atk.AlertID)

	// No Opt: the baseline without heuristics, capped at 2 simulated hours.
	noOpt, err := baseline.Run(ds.Store, alert, baseline.Options{TimeBudget: 2 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	// Opt: APTrace with the final script; stop when the root cause lands.
	plan, err := refiner.ParseAndCompile(atk.Scripts[len(atk.Scripts)-1])
	if err != nil {
		t.Fatal(err)
	}
	rootID, ok := lookupKey(ds, atk.RootCause)
	if !ok {
		t.Fatal("root cause object missing")
	}
	var x *core.Executor
	x, err = core.New(ds.Store, plan, core.Options{OnUpdate: func(u core.Update) {
		if u.Event.Src() == rootID || u.Event.Dst() == rootID {
			x.Stop()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := x.Run(alert)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := opt.Graph.Node(rootID); !ok {
		t.Fatalf("root cause not found; graph has %d edges, reason %v", opt.Graph.NumEdges(), opt.Reason)
	}
	if opt.Graph.NumEdges()*10 > noOpt.Graph.NumEdges() {
		t.Fatalf("heuristics should shrink the graph by >90%%: opt=%d noOpt=%d",
			opt.Graph.NumEdges(), noOpt.Graph.NumEdges())
	}
	t.Logf("phishing: noOpt=%d edges, opt=%d edges, opt time=%v",
		noOpt.Graph.NumEdges(), opt.Graph.NumEdges(), opt.Elapsed)
}

func lookupKey(ds *Dataset, key event.ObjectKey) (event.ObjID, bool) {
	for id, o := range ds.Store.Objects() {
		if o.Key() == key {
			return event.ObjID(id), true
		}
	}
	return 0, false
}

// TestAllAttacksRootCauseReachable verifies that for every attack, the
// final script still leaves a causal path from the alert to the root cause
// (the heuristics must never sever the true chain).
func TestAllAttacksRootCauseReachable(t *testing.T) {
	ds, err := Generate(smallConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, atk := range ds.Attacks {
		alert, _ := ds.Store.EventByID(atk.AlertID)
		plan, err := refiner.ParseAndCompile(atk.Scripts[len(atk.Scripts)-1])
		if err != nil {
			t.Fatalf("%s: %v", atk.Name, err)
		}
		rootID, ok := lookupKey(ds, atk.RootCause)
		if !ok {
			t.Fatalf("%s: root object missing", atk.Name)
		}
		x, err := core.New(ds.Store, plan, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := x.Run(alert)
		if err != nil {
			t.Fatalf("%s: %v", atk.Name, err)
		}
		if _, ok := res.Graph.Node(rootID); !ok {
			t.Errorf("%s: root cause unreachable under final script (graph %d edges)",
				atk.Name, res.Graph.NumEdges())
		}
	}
}
