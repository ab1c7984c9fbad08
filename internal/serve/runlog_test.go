package serve

import (
	"bytes"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateRunLogGolden = flag.Bool("update-run-log-golden", false,
	"rewrite testdata/run_log_*: only ever from the commit the goldens are meant to pin")

// TestRunLogEndpointsGolden pins the two views a served run offers of its log
// — GET .../explain and GET .../timeline — to the bytes they returned while
// each still read a record store of its own: the goldens under testdata/ were
// written by the commit before the timeline lane became a projection of the
// explain ring. The run is the last auto-launched investigation of the sample
// dataset (the smallest: the goldens stay readable), on the simulated clock,
// well under the ring's capacity; the memo cache is shared with the runs
// before it, as the daemon shares it, so memo verdicts are part of what is
// pinned.
func TestRunLogEndpointsGolden(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{
		Source:        StaticSource(ds.Store),
		AutoBacktrack: true,
		AutoHops:      8,
		Quota:         Quota{MaxActive: 8, MaxQueued: 64},
		QueueCap:      64,
		Workers:       1,
		MemoBytes:     16 << 20,
		ViewClock:     simClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := srv.DetectNow(); err != nil {
		t.Fatal(err)
	}
	var id string
	for _, run := range srv.Manager().Runs() {
		if sum := run.Wait(); sum.Updates > 0 {
			id = sum.ID
		}
	}
	if id == "" {
		t.Fatal("no auto-run updated its graph")
	}
	for _, view := range []string{"explain", "timeline"} {
		resp := mustGet(t, ts.URL+"/api/v1/sessions/"+id+"/"+view)
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "run_log_"+view+".golden")
		if *updateRunLogGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s of run %s differs from the golden (%d vs %d bytes)", view, id, len(got), len(want))
		}
	}
}
