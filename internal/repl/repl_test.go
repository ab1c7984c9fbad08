package repl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/simclock"
	"aptrace/internal/workload"
)

func replStore(t *testing.T) (*workload.Dataset, string) {
	t.Helper()
	ds, err := workload.Generate(workload.Config{Seed: 9, Hosts: 4, Days: 3, Density: 0.4}, simclock.NewSimulated(time.Time{}))
	if err != nil {
		t.Fatal(err)
	}
	return ds, ds.Attacks[0].Scripts[0]
}

func TestConsoleFullInvestigation(t *testing.T) {
	ds, v1 := replStore(t)
	dot := filepath.Join(t.TempDir(), "out.dot")

	// The full analyst flow: look at alerts, start a script, pause,
	// inspect, ask for suggestions, refine inline, resume, stop, render.
	v2 := strings.Replace(v1, "output =", `where file.path != "*.dll"`+"\noutput =", 1)
	input := strings.Join([]string{
		"alerts 3",
		"script", v1, ".",
		"pause",
		"status",
		"top 3",
		"suggest 3",
		"script", v2, ".",
		"resume",
		"stop",
		"dot " + dot,
		"quit",
	}, "\n")

	// The run takes a few milliseconds, the console as long as the scheduler
	// gives it: so that no command can find the analysis already over, the run
	// requests its own pause at every update (from the run goroutine that is
	// only a request, honoured when the window ends). "pause" finds it parked
	// or about to park, "resume" lets it go as far as its next update, and
	// "stop" is what ends it.
	var out bytes.Buffer
	var c *Console
	c = New(ds.Store, core.Options{OnUpdate: func(core.Update) { c.sess.Pause() }}, &out)
	n, err := c.Run(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("executed %d commands", n)
	}
	text := out.String()
	for _, want := range []string{
		"alerts; showing",
		"analysis started",
		"paused",
		"events,",
		"edges", // top output
		"refiner decision: resume",
		"resumed",
		"analysis stopped by analyst",
		"graph written to",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("console output missing %q:\n%s", want, text)
		}
	}
	raw, err := os.ReadFile(dot)
	if err != nil || !strings.Contains(string(raw), "digraph aptrace") {
		t.Fatalf("dot file: %v", err)
	}
}

func TestConsoleErrorsAndGuards(t *testing.T) {
	ds, _ := replStore(t)
	input := strings.Join([]string{
		"status", // nothing running
		"bogus",  // unknown command
		"load /nonexistent/file.bdl",
		"script", "this is not bdl", ".",
		"dot", // requires running analysis
		"quit",
	}, "\n")
	var out bytes.Buffer
	c := New(ds.Store, core.Options{}, &out)
	if _, err := c.Run(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"no analysis running",
		`unknown command "bogus"`,
		"error:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestConsoleLoadFromFile(t *testing.T) {
	ds, v1 := replStore(t)
	f := filepath.Join(t.TempDir(), "v1.bdl")
	if err := os.WriteFile(f, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	input := fmt.Sprintf("load %s\nstop\nquit\n", f)
	var out bytes.Buffer
	c := New(ds.Store, core.Options{}, &out)
	if _, err := c.Run(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "analysis started") {
		t.Fatalf("load did not start analysis:\n%s", out.String())
	}
}

func TestConsoleEOFTerminates(t *testing.T) {
	ds, _ := replStore(t)
	var out bytes.Buffer
	c := New(ds.Store, core.Options{}, &out)
	n, err := c.Run(strings.NewReader("help\n"))
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !strings.Contains(out.String(), "commands:") {
		t.Fatal("help output missing")
	}
}
