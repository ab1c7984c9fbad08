package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("aptrace_store_rows_examined_total").Add(42)
	r.Gauge("aptrace_executor_queue_depth").Set(7)
	h := r.Histogram("aptrace_store_query_latency_seconds", []float64{0.5, 1})
	h.Observe(0.3)
	h.Observe(0.7)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE aptrace_store_rows_examined_total counter",
		"aptrace_store_rows_examined_total 42",
		"# TYPE aptrace_executor_queue_depth gauge",
		"aptrace_executor_queue_depth 7",
		"# TYPE aptrace_store_query_latency_seconds histogram",
		`aptrace_store_query_latency_seconds_bucket{le="0.5"} 1`,
		`aptrace_store_query_latency_seconds_bucket{le="1"} 2`,
		`aptrace_store_query_latency_seconds_bucket{le="+Inf"} 3`,
		"aptrace_store_query_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistryWritePrometheus(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("aptrace_session_updates_total").Add(3)

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(string(body), "aptrace_session_updates_total 3") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	var metrics Snapshot
	if err := json.Unmarshal(payload["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.Counters["aptrace_session_updates_total"] != 3 {
		t.Fatalf("debug payload counters = %v", metrics.Counters)
	}
	// A run's windows are its log's timeline, not this payload's.
	if _, ok := payload["spans"]; ok {
		t.Fatal("debug payload still carries spans")
	}
}

func TestServeBindsAndServes(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total").Inc()
	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "served_total 1") {
		t.Fatalf("served body:\n%s", body)
	}
}
