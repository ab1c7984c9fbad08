package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
)

// WritePrometheus renders every instrument in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket{le=...} series plus _sum and _count. A nil registry
// writes nothing. Metrics appear in registration order, which follows the
// wiring order of the subsystems and keeps diffs between scrapes readable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runScrapeHooks()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range sortedNames(r.counters, r.order) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, r.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(r.gauges, r.order) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, r.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedNames(r.histograms, r.order) {
		s := r.histograms[name].snapshot()
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, c := range s.Buckets {
			cum += c
			le := "+Inf"
			if i < len(s.Bounds) {
				le = strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, s.Sum, name, s.Count); err != nil {
			return err
		}
	}
	return nil
}

// debugPayload is the /debug/telemetry response body.
type debugPayload struct {
	Metrics Snapshot `json:"metrics"`
}

// RegisterDebug mounts an extra handler on the registry's HTTP surface
// (e.g. the explain recorder's /debug/explain dump). Call before Handler or
// Serve; later registrations do not reach already-built muxes. No-op on a
// nil registry.
func (r *Registry) RegisterDebug(path string, h http.Handler) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.debug == nil {
		r.debug = make(map[string]http.Handler)
	}
	r.debug[path] = h
}

// Handler returns an http.Handler serving the registry:
//
//	/metrics          Prometheus text format
//	/debug/telemetry  JSON: full metrics snapshot
//
// plus any endpoints added with RegisterDebug. It is safe to call on a nil
// registry (the endpoints serve empty data).
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(debugPayload{Metrics: r.Snapshot()})
	})
	if r != nil {
		r.mu.Lock()
		for path, h := range r.debug {
			mux.Handle(path, h)
		}
		r.mu.Unlock()
	}
	return mux
}

// Serve starts an HTTP server for the registry on addr in a background
// goroutine and returns it along with the bound address (useful with a
// ":0" listener). The caller owns shutdown; commands typically let process
// exit collect it.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: r.Handler()}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
