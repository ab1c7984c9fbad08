package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/explain"
	"aptrace/internal/memo"
	"aptrace/internal/refiner"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
)

var updateStampGolden = flag.Bool("update-stamp-golden", false,
	"rewrite testdata/stamp_*: only ever from the commit the goldens are meant to pin")

// The golden scripts put every kind of stamp point between two records:
// where filters whose attribute walks charge the clock per candidate (with a
// hop budget behind them, so a verdict follows a charging filter without
// another stamp point in between), a tracking chain whose node matcher
// charges inside the maintainer, a time budget that ends a run with windows
// still queued, and a prioritize rule (which reads only the object table).
// The chain run also re-propagates its plan twice mid-run, which charges a
// recalculation: once from inside OnUpdate, and once from another goroutine
// while the loop is parked.
const (
	stampWhere = `where file.path != "*.dll" and proc.dst.isWriteThrough != true and hop <= 3
prioritize [type = file] <- [type = network and amount >= size]`
	stampChain = `backward ip a[dst_ip = "6.6.6.6"] -> proc p[exename = "mal.exe"] -> file f[last_access_time >= "1970-01-01 00:00:00"] -> *
where time <= 130s`
)

// stampRun executes one fully observed run (explain, timeline lane,
// telemetry, OnUpdate) over a fresh simulated-clock view and returns
// everything of it that carries analysis time — explain records and Update.At
// values, one JSON value per line — plus the lane's Chrome trace.
func stampRun(t *testing.T, s *store.Store, plan *refiner.Plan, alert event.Event, cache *memo.Cache, replan bool) (obs, trace []byte) {
	t.Helper()
	v, err := s.View(simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rec := newLane("run", 0, defaultLimit, nil)
	var updateAt []time.Time
	var x *Executor
	parked := make(chan struct{})
	x, err = New(v, plan, Options{
		Windows:   4,
		Telemetry: reg,
		Explain:   rec,
		Memo:      cache,
		OnUpdate: func(u Update) {
			updateAt = append(updateAt, u.At)
			if !replan {
				return
			}
			switch len(updateAt) {
			case 3:
				if err := x.UpdatePlan(plan, refiner.Repropagate); err != nil {
					t.Error(err)
				}
			case 6:
				x.Pause() // on the run goroutine: parks when this window ends
				go func() {
					defer close(parked)
					x.Pause() // returns once the loop has parked
					if err := x.UpdatePlan(plan, refiner.Repropagate); err != nil {
						t.Error(err)
					}
					x.Resume()
				}()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.RunUnchecked(alert); err != nil {
		t.Fatal(err)
	}
	if replan {
		if len(updateAt) < 6 {
			t.Fatalf("run ended after %d updates, before the replans", len(updateAt))
		}
		<-parked
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, r := range rec.Records() {
		enc.Encode(r)
	}
	enc.Encode(updateAt)
	var buf bytes.Buffer
	if err := explain.WriteTrace(&buf, []*explain.Recorder{rec}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), buf.Bytes()
}

// TestStampGolden pins the stamp invariant against the code that had no
// stamp: the goldens under testdata/ were written by the commit before the
// executor cached its clock reading, when every record read the clock for
// itself. Explain records (with "at"), the Update.At sequence and the
// timeline trace must come out byte for byte the same, backward and forward,
// with the memo off, cold and warm.
func TestStampGolden(t *testing.T) {
	back, backAlert := fixture(t, nil, 60)
	fwd, fwdAlert := forwardFixture(t)
	chain, err := refiner.ParseAndCompile(stampChain)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		name   string
		st     *store.Store
		plan   *refiner.Plan
		alert  event.Event
		replan bool
	}{
		{"backward", back, wildcardPlan(t, stampWhere), backAlert, false},
		{"chain", back, chain, backAlert, true},
		{"forward", fwd, forwardPlan(t, stampWhere), fwdAlert, false},
	} {
		cache := memo.New(0, nil)
		for _, run := range []struct {
			name  string
			cache *memo.Cache
		}{{"memo_off", nil}, {"memo_cold", cache}, {"memo_warm", cache}} {
			obs, trace := stampRun(t, dir.st, dir.plan, dir.alert, run.cache, dir.replan)
			base := filepath.Join("testdata", "stamp_"+dir.name+"_"+run.name)
			for _, f := range []struct {
				path string
				got  []byte
			}{{base + ".json", obs}, {base + ".trace.json", trace}} {
				if *updateStampGolden {
					if err := os.WriteFile(f.path, f.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(f.path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(f.got, want) {
					t.Errorf("%s: run output differs from the golden (%d vs %d bytes)", f.path, len(f.got), len(want))
				}
			}
		}
	}
}

// countingClock counts reads of the analysis clock.
type countingClock struct {
	simclock.Clock
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.Clock.Now()
}

// TestServedRunClockReads bounds how often a run in the served configuration
// — explain recorder, timeline lane, telemetry and an OnUpdate hook all attached,
// as the triage daemon runs it — reads the analysis clock: once per point
// where analysis time can have moved, not once per record. Per popped window
// that is the loop top and the query's return (a re-split pops without
// querying); per candidate that reaches the where filter, its verdict. The
// hook's return is not such a point: an update and the records after it keep
// the stamp. Everything else a window emits (enqueue, empty and dedup
// records, lane events, updates, the run's end) must ride on those stamps: a
// run that reads the clock per record or per update reads it more often than
// the bound.
func TestServedRunClockReads(t *testing.T) {
	s, alert := fixture(t, nil, 400)
	clk := &countingClock{Clock: simclock.NewSimulated(time.Time{})}
	v, err := s.View(clk)
	if err != nil {
		t.Fatal(err)
	}
	rec := newLane("run", 0, defaultLimit, nil)
	updates := 0
	x, err := New(v, wildcardPlan(t, stampWhere), Options{
		Telemetry: telemetry.NewRegistry(),
		Explain:   rec,
		OnUpdate:  func(Update) { updates++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := x.RunUnchecked(alert)
	if err != nil {
		t.Fatal(err)
	}
	kinds := rec.CountByKind()
	pops := res.Windows + kinds["window-resplit"]
	filtered := kinds["edge-added"] - 1 + kinds["edge-where-rejected"] + kinds["edge-hop-budget"] // the alert edge is never filtered
	const fixed = 4                                                                               // Prepare, the last loop top, the run's end, slack
	bound := 2*pops + filtered + fixed
	emitted, _ := rec.Stats()
	records := int(emitted) + rec.Progress().Events
	t.Logf("%d clock reads for %d records (%d pops, %d filtered candidates, %d updates): bound %d",
		clk.reads, records, pops, filtered, updates, bound)
	if updates == 0 || kinds["window-resplit"] == 0 || kinds["edge-where-rejected"] == 0 {
		t.Fatalf("fixture no longer exercises updates, re-splits and where rejections: %v", kinds)
	}
	if clk.reads > bound {
		t.Errorf("%d clock reads, want at most %d: some record reads the clock for itself again", clk.reads, bound)
	}
	if bound >= records {
		t.Errorf("bound %d is not below the %d records of the run: the test no longer tells per-window from per-record reads", bound, records)
	}

	// A run nobody records (batch triage: an OnUpdate hook and nothing else)
	// reads the clock for Update.At alone: once per retrieval that adds an
	// edge, however many it adds, plus the run's start and end. Without a
	// where filter nothing else charges between two updates of a window.
	clk = &countingClock{Clock: simclock.NewSimulated(time.Time{})}
	if v, err = s.View(clk); err != nil {
		t.Fatal(err)
	}
	updates = 0
	if x, err = New(v, wildcardPlan(t, ""), Options{OnUpdate: func(Update) { updates++ }}); err != nil {
		t.Fatal(err)
	}
	if res, err = x.RunUnchecked(alert); err != nil {
		t.Fatal(err)
	}
	t.Logf("unrecorded run: %d clock reads for %d updates in %d windows", clk.reads, updates, res.Windows)
	if clk.reads > res.Windows+2 {
		t.Errorf("unrecorded run: %d clock reads in %d windows, want at most one each plus the run's start and end", clk.reads, res.Windows)
	}
	if updates <= res.Windows+2 {
		t.Errorf("unrecorded run: %d updates in %d windows: the test no longer tells per-update from per-window reads", updates, res.Windows)
	}
}
