package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/qprof"
	"aptrace/internal/session"
	"aptrace/internal/simclock"
	"aptrace/internal/store"
	"aptrace/internal/telemetry"
	"aptrace/internal/workload"
)

// counted keeps what a profile counts — queries, rows, fan-out — and drops
// what it times, which differs from run to run.
func counted(s qprof.Snapshot) qprof.Snapshot {
	s.BusyNs, s.SavableNs, s.MergeNs = 0, 0, 0
	s.SkewP50, s.SkewP90, s.SkewMax = 0, 0, 0
	for i := range s.Kinds {
		s.Kinds[i].BusyNs, s.Kinds[i].MergeNs = 0, 0
	}
	return s
}

// countedShards keeps what per-shard heat counts, likewise.
func countedShards(infos []store.ShardInfo) []store.ShardInfo {
	infos = append([]store.ShardInfo(nil), infos...)
	for i := range infos {
		infos[i].BusyNs, infos[i].SealWall = 0, 0
	}
	return infos
}

// shardedServer serves a four-part generated store after one analyst
// session on it has finished.
func shardedServer(t *testing.T, cfg Config) (*Server, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(
		workload.Config{Seed: 9, Hosts: 4, Days: 3, Density: 0.4, Shards: 4},
		simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Source, cfg.ViewClock = StaticSource(ds.Store), simClock
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := srv.Manager().Submit("analyst", ds.Attacks[0].Scripts[0], nil, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if sum := run.Wait(); sum.State != "done" {
		t.Fatalf("run state = %s (%s)", sum.State, sum.Error)
	}
	return srv, ds
}

// TestDebugShards drives GET /debug/shards end to end on a sharded store:
// a backtracking session runs against the snapshot (whose view inherits
// the daemon's always-on profiler), then the endpoint reports the physical
// shard layout with each part's heat next to the profiler's cumulative
// query-side view, and the same per-shard loads feed the watchdog's
// shard_skew stat.
func TestDebugShards(t *testing.T) {
	srv, ds := shardedServer(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/shards")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decodeBody[shardsResponse](t, resp)
	if body.ShardCount != 4 || len(body.Shards) != 4 {
		t.Fatalf("shard_count = %d, shards = %d", body.ShardCount, len(body.Shards))
	}
	if body.EpochSeconds <= 0 {
		t.Fatalf("epoch_seconds = %d", body.EpochSeconds)
	}
	if body.Profile.ShardCount != 4 || body.Profile.Queries == 0 || body.Profile.Rows == 0 {
		t.Fatalf("profile = %+v", body.Profile)
	}
	var queries, rows int64
	for _, sh := range body.Shards {
		queries, rows = queries+sh.Queries, rows+sh.RowsServed
	}
	if queries == 0 || rows == 0 {
		t.Fatalf("no shard heat: %+v", body.Shards)
	}

	// The run's view wrote its samples into its aggregate and folded that
	// into the profiler a batch at a time, the rest when the run ended. The
	// same investigation on a store that delivers every sample as it is made
	// (a root store does) must leave the same profile and the same per-shard
	// heat behind: nothing is lost or double-counted in a batch.
	ds2, err := workload.Generate(ds.Config, simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	ref := qprof.New()
	ds2.Store.SetQueryProfiler(ref)
	sess := session.New(ds2.Store, core.Options{})
	if err := sess.Start(ds.Attacks[0].Scripts[0], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := counted(body.Profile), counted(ref.Snapshot()); !reflect.DeepEqual(got, want) {
		t.Fatalf("served profile differs from per-sample observation:\n got %+v\nwant %+v", got, want)
	}
	if got, want := countedShards(body.Shards), countedShards(ds2.Store.ShardInfos()); !reflect.DeepEqual(got, want) {
		t.Fatalf("served shard heat differs from per-sample observation:\n got %+v\nwant %+v", got, want)
	}

	// The watchdog's counts snapshot carries the per-shard loads the
	// shard_skew rule windows over.
	c := srv.opsCounts()
	if len(c.ShardLoads) != 4 {
		t.Fatalf("ShardLoads = %v", c.ShardLoads)
	}
	var total int64
	for _, n := range c.ShardLoads {
		total += n
	}
	if total == 0 {
		t.Fatalf("ShardLoads all zero after a completed run: %v", c.ShardLoads)
	}
}

// TestDebugShardsMirror holds apserve's -metrics mirror to the API route:
// the handler ShardsHandler returns, mounted on a telemetry registry's mux,
// serves the API's /debug/shards body byte for byte.
func TestDebugShardsMirror(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, _ := shardedServer(t, Config{Telemetry: reg})
	reg.RegisterDebug("/debug/shards", srv.ShardsHandler())
	get := func(h http.Handler) []byte {
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/debug/shards")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	api, mirror := get(srv.Handler()), get(reg.Handler())
	if !bytes.Equal(api, mirror) {
		t.Fatalf("the -metrics mirror serves a different body:\napi    %s\nmirror %s", api, mirror)
	}
	if !bytes.Contains(api, []byte(`"rows_served"`)) {
		t.Fatalf("body carries no per-shard heat: %s", api)
	}
}
