package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegisterPprofSharesHandlerMux(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterPprof()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		if path == "/debug/pprof/" && !strings.Contains(string(body), "goroutine") {
			t.Fatalf("pprof index missing profile list: %q", body)
		}
	}
}

func TestRegisterPprofNilRegistry(t *testing.T) {
	var reg *Registry
	reg.RegisterPprof() // must not panic
}
