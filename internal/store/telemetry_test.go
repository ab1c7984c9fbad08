package store

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"aptrace/internal/event"
	"aptrace/internal/telemetry"
)

// telemetryFixture builds a small sealed store with a registry attached.
func telemetryFixture(t *testing.T) (*Store, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s := New(nil, WithTelemetry(reg))
	proc := event.Process("h", "p.exe", 1, 0)
	file := event.File("h", "/tmp/f")
	for i := int64(0); i < 20; i++ {
		if _, err := s.AddEvent(100+i, proc, file, event.ActWrite, event.FlowOut, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	return s, reg
}

// TestStoreMetricsAgreeWithStats is the acceptance criterion: the
// Prometheus /metrics endpoint's aptrace_store_rows_examined_total must
// agree with store.Stats() after a query run.
func TestStoreMetricsAgreeWithStats(t *testing.T) {
	s, reg := telemetryFixture(t)
	file := event.File("h", "/tmp/f")
	dst, ok := s.Lookup(file)
	if !ok {
		t.Fatal("file not interned")
	}
	if _, err := s.AppendBackward(nil, dst, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendBackward(nil, dst, 100, 110); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendForward(nil, dst, 0, 1000); err != nil { // miss: file is never a source
		t.Fatal(err)
	}

	stats := s.Stats()
	if stats.RowsExamined == 0 || stats.Queries != 3 {
		t.Fatalf("unexpected stats: %+v", stats)
	}

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	scrape := func(name string) int64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(body)
		if m == nil {
			t.Fatalf("metric %s not exposed:\n%s", name, body)
		}
		v, _ := strconv.ParseInt(string(m[1]), 10, 64)
		return v
	}
	if got := scrape(telemetry.MetricStoreRowsExamined); got != stats.RowsExamined {
		t.Fatalf("/metrics rows examined = %d, store.Stats() = %d", got, stats.RowsExamined)
	}
	if got := scrape(telemetry.MetricStoreQueries); got != stats.Queries {
		t.Fatalf("/metrics queries = %d, store.Stats() = %d", got, stats.Queries)
	}
	if got := scrape(telemetry.MetricStoreBucketsPruned); got != stats.BucketsPruned {
		t.Fatalf("/metrics buckets = %d, store.Stats() = %d", got, stats.BucketsPruned)
	}
}

func TestPostingHitMissCounters(t *testing.T) {
	s, reg := telemetryFixture(t)
	file := event.File("h", "/tmp/f")
	dst, _ := s.Lookup(file)

	if _, err := s.AppendBackward(nil, dst, 0, 1000); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := s.CountBackward(dst, 0, 1000); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := s.AppendForward(nil, dst, 0, 1000); err != nil { // miss (file never a source)
		t.Fatal(err)
	}
	if _, err := s.CountForward(dst, 0, 1000); err != nil { // miss
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricStorePostingHits]; got != 2 {
		t.Fatalf("posting hits = %d, want 2", got)
	}
	if got := snap.Counters[telemetry.MetricStorePostingMisses]; got != 2 {
		t.Fatalf("posting misses = %d, want 2", got)
	}
}

func TestQueryHistogramsPopulated(t *testing.T) {
	s, reg := telemetryFixture(t)
	file := event.File("h", "/tmp/f")
	dst, _ := s.Lookup(file)
	if _, err := s.AppendBackward(nil, dst, 0, 1000); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	rows := snap.Histograms[telemetry.MetricStoreQueryRows]
	if rows.Count != 1 || rows.Sum != 20 {
		t.Fatalf("query rows histogram = %+v, want one observation of 20", rows)
	}
	lat := snap.Histograms[telemetry.MetricStoreQueryLatency]
	wantSec := s.CostModel().QueryCost(20, 1).Seconds()
	if lat.Count != 1 || lat.Sum != wantSec {
		t.Fatalf("latency histogram = %+v, want one observation of %gs", lat, wantSec)
	}
}

func TestLiveWALCounters(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l, err := OpenLive(dir, nil, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	proc := event.Process("h", "p.exe", 1, 0)
	file := event.File("h", "/tmp/f")
	// First append logs two object records + one event record; the second
	// reuses the interned objects and logs only the event.
	if _, err := l.Append(1, proc, file, event.ActWrite, event.FlowOut, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, proc, file, event.ActWrite, event.FlowOut, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricWALAppends]; got != 4 {
		t.Fatalf("wal appends = %d, want 4 (2 objects + 2 events)", got)
	}
	if got := snap.Counters[telemetry.MetricWALFsyncs]; got != 1 {
		t.Fatalf("wal fsyncs = %d, want 1", got)
	}
	if err := l.Close(); err != nil { // Close syncs once more
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[telemetry.MetricWALFsyncs]; got != 2 {
		t.Fatalf("wal fsyncs after close = %d, want 2", got)
	}
	if l.Telemetry() != reg {
		t.Fatal("live store must expose its registry")
	}
}

// TestSnapshotInheritsTelemetry pins that analysis snapshots taken from a
// live store keep publishing to the same registry.
func TestSnapshotInheritsTelemetry(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	l, err := OpenLive(dir, nil, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proc := event.Process("h", "p.exe", 1, 0)
	for i := int64(0); i < 5; i++ {
		file := event.File("h", fmt.Sprintf("/tmp/f%d", i))
		if _, err := l.Append(i, proc, file, event.ActWrite, event.FlowOut, 1); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := snap.Lookup(event.File("h", "/tmp/f0"))
	if _, err := snap.AppendBackward(nil, dst, 0, 100); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters[telemetry.MetricStoreQueries]; got != 1 {
		t.Fatalf("snapshot query not published to shared registry: %d", got)
	}
}
