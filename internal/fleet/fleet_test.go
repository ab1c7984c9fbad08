package fleet

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aptrace/internal/telemetry"
)

func TestDefaultWorkers(t *testing.T) {
	if got := New(0, nil).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(3, nil).Workers(); got != 3 {
		t.Fatalf("New(3).Workers() = %d", got)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(New(2, nil), 0, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Map(0) = %v, %v", out, err)
	}
}

// TestMapBoundedConcurrency proves both halves of the contract: the pool
// really runs `workers` jobs at once (the first four jobs rendezvous on a
// barrier that only completes if all four are in flight together), and it
// never runs more (the high-water mark of the active counter).
func TestMapBoundedConcurrency(t *testing.T) {
	const workers = 4
	p := New(workers, nil)

	var active, high int32
	var barrier sync.WaitGroup
	barrier.Add(workers)
	out, err := Map(p, 32, func(i int) (int, error) {
		cur := atomic.AddInt32(&active, 1)
		for {
			old := atomic.LoadInt32(&high)
			if cur <= old || atomic.CompareAndSwapInt32(&high, old, cur) {
				break
			}
		}
		if i < workers {
			// The pool pops jobs in submission order, so jobs 0..3 land on
			// the four workers; this only returns if they overlap in time.
			barrier.Done()
			barrier.Wait()
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&active, -1)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 32 {
		t.Fatalf("got %d results", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d: results not collected by job index", i, v)
		}
	}
	if h := atomic.LoadInt32(&high); h != workers {
		t.Fatalf("high-water concurrency = %d, want exactly %d", h, workers)
	}
}

// TestMapErrorPropagation: a failure aborts the batch — jobs not yet started
// are skipped, jobs already running finish — and the error reported is the
// lowest failing index, not the first to fail. Two channels fix the order the
// pool's scheduling would otherwise decide: job 12 fails only once job 7 is
// running, and job 7 fails only once job 12 is on its way out. Job 7 holds one
// of the two workers meanwhile, so the other runs 8..12 and, having flagged
// its own failure, skips the rest; exactly jobs 0..12 run.
func TestMapErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	running7, leaving12 := make(chan struct{}), make(chan struct{})
	var ran int32
	_, err := Map(New(2, nil), 20, func(i int) (int, error) {
		atomic.AddInt32(&ran, 1)
		switch i {
		case 7:
			close(running7)
			<-leaving12
			return 0, sentinel
		case 12:
			<-running7
			close(leaving12)
			return 0, errors.New("later job, earlier failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("Map must propagate the job error")
	}
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "run 7") {
		t.Fatalf("err = %v, want job 7's error wrapped with its index: the lowest failing index wins", err)
	}
	if n := atomic.LoadInt32(&ran); n != 13 {
		t.Fatalf("%d jobs ran, want 13: unstarted jobs are skipped after the failure", n)
	}
}

func TestMapLowestIndexErrorWins(t *testing.T) {
	// Both failures happen before the abort flag is visible; the reported
	// error must be the lowest job index, deterministically.
	var gate sync.WaitGroup
	gate.Add(2)
	_, err := Map(New(2, nil), 2, func(i int) (int, error) {
		gate.Done()
		gate.Wait() // both jobs fail concurrently
		return 0, errors.New("fail")
	})
	if err == nil || !strings.Contains(err.Error(), "run 0") {
		t.Fatalf("err = %v, want run 0", err)
	}
}

func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(4, reg)
	if err := ForEach(p, 10, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricFleetRuns]; got != 10 {
		t.Fatalf("runs counter = %d, want 10", got)
	}
	if got := snap.Counters[telemetry.MetricFleetFailures]; got != 0 {
		t.Fatalf("failures counter = %d, want 0", got)
	}
	if g := snap.Gauges[telemetry.MetricFleetActive]; g != 0 {
		t.Fatalf("active gauge = %d after drain", g)
	}
	if g := snap.Gauges[telemetry.MetricFleetQueued]; g != 0 {
		t.Fatalf("queued gauge = %d after drain", g)
	}

	// A failing batch still drains both gauges and counts the failure.
	ForEach(p, 10, func(i int) error {
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	snap = reg.Snapshot()
	if got := snap.Counters[telemetry.MetricFleetFailures]; got == 0 {
		t.Fatal("failure not counted")
	}
	if g := snap.Gauges[telemetry.MetricFleetQueued]; g != 0 {
		t.Fatalf("queued gauge = %d after failed batch", g)
	}
	if g := snap.Gauges[telemetry.MetricFleetActive]; g != 0 {
		t.Fatalf("active gauge = %d after failed batch", g)
	}
}

func TestRunnerExecutesSubmittedJobs(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(3, reg)
	r := p.Runner(8)
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		for !r.TrySubmit(func() { ran.Add(1) }) {
			time.Sleep(time.Millisecond) // queue full: workers will drain it
		}
	}
	r.Close()
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d jobs, want 20", got)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MetricFleetRuns]; got != 20 {
		t.Fatalf("runs counter = %d, want 20", got)
	}
	if g := snap.Gauges[telemetry.MetricFleetActive]; g != 0 {
		t.Fatalf("active gauge = %d after Close", g)
	}
	if g := snap.Gauges[telemetry.MetricFleetQueued]; g != 0 {
		t.Fatalf("queued gauge = %d after Close", g)
	}
}

// TestRunnerBackpressure pins the admission-control contract: with every
// worker blocked and the queue full, TrySubmit refuses without blocking and
// without perturbing the queued gauge.
func TestRunnerBackpressure(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(1, reg)
	r := p.Runner(1)

	started := make(chan struct{})
	release := make(chan struct{})
	if !r.TrySubmit(func() { close(started); <-release }) {
		t.Fatal("first submit refused")
	}
	<-started // the only worker is now held; the queue is empty
	if !r.TrySubmit(func() {}) {
		t.Fatal("second submit should occupy the queue slot")
	}
	if r.TrySubmit(func() { t.Error("overflow job must never run") }) {
		t.Fatal("third submit should be refused: worker busy, queue full")
	}
	if g := reg.Snapshot().Gauges[telemetry.MetricFleetQueued]; g != 1 {
		t.Fatalf("queued gauge = %d with one queued job", g)
	}
	close(release)
	r.Close()
	if g := reg.Snapshot().Gauges[telemetry.MetricFleetQueued]; g != 0 {
		t.Fatalf("queued gauge = %d after drain", g)
	}
}

// TestRunnerClose pins the shutdown contract: Close waits for accepted jobs,
// refuses later submissions, and is idempotent.
func TestRunnerClose(t *testing.T) {
	p := New(2, nil)
	r := p.Runner(4)
	var done atomic.Bool
	release := make(chan struct{})
	if !r.TrySubmit(func() { <-release; done.Store(true) }) {
		t.Fatal("submit refused")
	}
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while an accepted job was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !done.Load() {
		t.Fatal("accepted job did not finish before Close returned")
	}
	if r.TrySubmit(func() {}) {
		t.Fatal("TrySubmit after Close must refuse")
	}
	r.Close() // idempotent
}
