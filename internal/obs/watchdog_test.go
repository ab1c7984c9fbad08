package obs

import (
	"strings"
	"testing"
	"time"

	"aptrace/internal/telemetry"
)

func TestParseRules(t *testing.T) {
	rules, err := ParseRules("quota_429_rate>0.5, memo_hit_rate<0.1,detect_stall>30s")
	if err != nil {
		t.Fatal(err)
	}
	want := []Rule{
		{Stat: StatQuota429Rate, Threshold: 0.5},
		{Stat: StatMemoHitRate, Less: true, Threshold: 0.1},
		{Stat: StatDetectStall, Threshold: 30},
	}
	if len(rules) != len(want) {
		t.Fatalf("rules = %+v", rules)
	}
	for i := range want {
		if rules[i] != want[i] {
			t.Fatalf("rule %d = %+v, want %+v", i, rules[i], want[i])
		}
	}
	if def, err := ParseRules(""); err != nil || len(def) != len(DefaultRules) {
		t.Fatalf("empty spec: %v, %v", def, err)
	}
	if off, err := ParseRules("off"); err != nil || off != nil {
		t.Fatalf("off spec: %v, %v", off, err)
	}
	for _, bad := range []string{
		"nope>1", "quota_429_rate=1", "detect_stall>soon", "sse_drop_rate>-1",
		"shard_skew>4", // the daemon samples no per-shard load, so no rule reads one
	} {
		if _, err := ParseRules(bad); err == nil {
			t.Fatalf("ParseRules(%q) accepted", bad)
		}
	}
}

func TestWatchdogRates(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	counts := Counts{LastDetect: base}
	reg := telemetry.NewRegistry()
	j := New(Options{})
	w := NewWatchdog(j, reg, DefaultRules, func() Counts { return counts })

	if v := w.Tick(base); v != nil {
		t.Fatalf("first tick must only baseline, got %+v", v)
	}

	// Quiet window except a 429 storm: 10 attempts, 9 rejected.
	counts.Submissions += 1
	counts.Rejected += 9
	counts.LastDetect = base.Add(time.Second)
	fired := w.Tick(base.Add(2 * time.Second))
	if len(fired) != 1 || fired[0].Stat != StatQuota429Rate {
		t.Fatalf("fired = %+v, want one quota_429_rate violation", fired)
	}
	if got := j.Query(Filter{Stage: StageOpsAlert}); len(got) != 1 || got[0].Level != "warn" {
		t.Fatalf("journal = %+v", got)
	}
	if n := reg.Snapshot().Counters[telemetry.MetricOpsAlerts]; n != 1 {
		t.Fatalf("aptrace_ops_alerts_total = %d", n)
	}

	// Below the minimum window activity, the same ratio must not fire.
	counts.Rejected += 3
	counts.LastDetect = base.Add(3 * time.Second)
	if fired := w.Tick(base.Add(4 * time.Second)); fired != nil {
		t.Fatalf("sub-minimum window fired %+v", fired)
	}

	// Detector stall + queue saturation are level stats on the snapshot.
	counts.QueueLen, counts.QueueCap = 19, 20
	fired = w.Tick(base.Add(60 * time.Second))
	var stats []string
	for _, v := range fired {
		stats = append(stats, v.Stat)
	}
	joined := strings.Join(stats, ",")
	if !strings.Contains(joined, StatDetectStall) || !strings.Contains(joined, StatQueueSaturation) {
		t.Fatalf("fired = %v, want detect_stall and queue_saturation", joined)
	}

	sum := w.Summarize()
	if sum.Alerts < 3 || len(sum.Rules) != len(DefaultRules) || len(sum.Recent) != int(sum.Alerts) {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestWatchdogMemoFloorAndDropRate(t *testing.T) {
	base := time.Unix(1000, 0)
	counts := Counts{}
	w := NewWatchdog(nil, nil, DefaultRules, func() Counts { return counts })
	w.Tick(base)

	// 20 memo lookups, zero hits → below the 5% floor.
	counts.MemoMisses += 20
	// 10 published updates, 5 dropped → above the 20% drop ceiling.
	counts.UpdatesPublished += 10
	counts.UpdatesDropped += 5
	fired := w.Tick(base.Add(time.Second))
	got := map[string]bool{}
	for _, v := range fired {
		got[v.Stat] = true
	}
	if !got[StatMemoHitRate] || !got[StatSSEDropRate] || len(fired) != 2 {
		t.Fatalf("fired = %+v", fired)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	counts := Counts{}
	w := NewWatchdog(nil, nil, nil, func() Counts { return counts })
	w.Start(time.Millisecond)
	w.Start(time.Millisecond) // second Start is a no-op
	time.Sleep(5 * time.Millisecond)
	w.Stop()
	w.Stop() // idempotent
	var nilW *Watchdog
	nilW.Start(time.Millisecond)
	nilW.Stop()
	if nilW.Tick(time.Now()) != nil || nilW.Rules() != nil {
		t.Fatal("nil watchdog not inert")
	}
}
