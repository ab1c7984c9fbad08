package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the tests below run this binary as apserve itself.
func TestMain(m *testing.M) {
	if os.Getenv("APSERVE_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// apserve returns a command that runs this binary as apserve with args.
func apserve(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "APSERVE_TEST_MAIN=1")
	return cmd
}

// TestFlagSurface pins apserve's flags: a new knob is a reviewed change to
// this list. The test binary's own test.* flags are not apserve's.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "auto", "detect", "journal", "journal-level", "k",
		"max-active", "max-queued", "memo", "metrics", "ops-rules", "pprof",
		"queue", "retain-alerts", "retain-sessions", "sample", "store", "tail",
		"watchdog", "workers",
	}
	out, err := apserve("-h").CombinedOutput()
	if err != nil {
		t.Fatalf("apserve -h: %v\n%s", err, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllSubmatch(out, -1) {
		if name := string(m[1]); !strings.HasPrefix(name, "test.") {
			got = append(got, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %q\nwant    %q", got, want)
	}
}

// watch is a command's output stream that closes seen once it has carried
// needle.
type watch struct {
	needle []byte
	seen   chan struct{}
	mu     sync.Mutex
	buf    bytes.Buffer
}

func (w *watch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	had := bytes.Contains(w.buf.Bytes(), w.needle)
	w.buf.Write(p)
	if !had && bytes.Contains(w.buf.Bytes(), w.needle) {
		close(w.seen)
	}
	return len(p), nil
}

func (w *watch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestJournalOwnsStdout: with -journal -, stdout is the NDJSON journal and
// nothing else — the daemon's status lines, the drain report included, go
// to stderr. The daemon is stopped once an auto-run has ended, so the
// stream holds a whole alert's lifecycle.
func TestJournalOwnsStdout(t *testing.T) {
	stdout := &watch{needle: []byte(`"stage":"run.terminal"`), seen: make(chan struct{})}
	var stderr bytes.Buffer
	cmd := apserve("-addr", "127.0.0.1:0", "-sample", "-detect", "200ms", "-journal", "-")
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stdout.seen:
	case <-time.After(2 * time.Minute):
		t.Error("no auto-run reached run.terminal")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("apserve exit: %v\nstderr:\n%s", err, stderr.String())
	}

	batches := 0
	sc := bufio.NewScanner(strings.NewReader(stdout.String()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var entry struct {
			Stage string `json:"stage"`
		}
		if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
			t.Errorf("stdout line is not JSON: %q", sc.Text())
			continue
		}
		if entry.Stage == "ingest.batch" {
			batches++
		}
	}
	if batches == 0 {
		t.Error("journal on stdout holds no ingest.batch entry")
	}
	if !regexp.MustCompile(`drained:.*clean=true`).MatchString(stderr.String()) {
		t.Errorf("stderr lacks a clean drain report:\n%s", stderr.String())
	}
}
