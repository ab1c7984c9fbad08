package telemetry

import (
	"net/http"
	"net/http/pprof"
)

// RegisterPprof mounts the stdlib net/http/pprof profiling handlers on the
// registry's HTTP surface, next to /metrics and /debug/telemetry. Call
// before Handler or Serve, like any RegisterDebug registration. No-op on a
// nil registry.
func (r *Registry) RegisterPprof() {
	r.RegisterDebug("/debug/pprof/", http.HandlerFunc(pprof.Index))
	r.RegisterDebug("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
	r.RegisterDebug("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
	r.RegisterDebug("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
	r.RegisterDebug("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
}
