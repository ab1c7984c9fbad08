package serve

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"aptrace/internal/telemetry"
)

// TestSSECancelMidStreamNoDeadlock is the slow-consumer regression test:
// a client subscribes to a session's update stream, reads one frame, and
// vanishes mid-stream. The analysis must keep running (publication into the
// dead subscriber's bounded buffer never blocks), Pause/Resume/Stop must
// complete promptly afterwards, and neither the handler goroutine nor the
// subscriber may leak. Run under -race in CI.
func TestSSECancelMidStreamNoDeadlock(t *testing.T) {
	ds := dataset(t)
	g := newGate()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{
		Source:           StaticSource(ds.Store),
		Workers:          1,
		SubscriberBuffer: 1, // force drops on any consumer slower than the run
		Telemetry:        reg,
		ViewClock:        g.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	baseline := runtime.NumGoroutine()

	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	run, err := srv.Manager().Submit("analyst", atk.Scripts[0], &alert, false, "")
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered // the worker holds the run just before execution

	// A subscriber that never reads at all: every update past the first must
	// be dropped, not block the executor.
	_, deaf := run.hub.subscribe(1)

	// The canceling client: attach before the run starts so the stream is
	// guaranteed live (not a backlog replay) when we cut it.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		ts.URL+"/api/v1/sessions/"+run.ID+"/updates", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}

	close(g.release) // run!

	// Read exactly one live frame, then disappear mid-stream.
	frames := readSSE(t, bufio.NewReader(resp.Body), 1)
	if len(frames) != 1 || frames[0].event != "update" {
		t.Fatalf("first frame = %+v", frames)
	}
	cancel()
	resp.Body.Close()

	// Pause -> Resume -> Stop with the canceled client and the deaf
	// subscriber still attached. Each must return promptly; a blocking
	// publish would wedge the run loop and deadlock Pause (which waits for
	// the loop to park).
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"pause", run.Pause},
		{"resume", run.Resume},
		{"stop", run.Stop},
	} {
		errc := make(chan error, 1)
		go func() { errc <- op.call() }()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s deadlocked with a canceled SSE client attached", op.name)
		}
	}

	select {
	case <-run.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached a terminal state after Stop")
	}
	sum := run.Summary()
	if sum.State != "done" {
		t.Fatalf("run ended %s: %s", sum.State, sum.Error)
	}

	// Drop accounting: the deaf subscriber missed everything past its
	// single buffer slot, and the shared counter saw it.
	if sum.Updates > 1 {
		dropped := run.hub.unsubscribe(deaf)
		if dropped != sum.Updates-1 {
			t.Fatalf("deaf subscriber dropped %d of %d updates, want %d",
				dropped, sum.Updates, sum.Updates-1)
		}
		if c := reg.Counter(telemetry.MetricServeUpdatesDropped).Value(); c < int64(dropped) {
			t.Fatalf("drop counter = %d, want >= %d", c, dropped)
		}
	} else {
		run.hub.unsubscribe(deaf)
	}

	// No leaked handler or subscriber goroutines: closing the test server
	// waits out handlers, and the goroutine count settles back to baseline.
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSSESubscriberAfterFinishSeesFullBacklog guards the replay contract:
// a client attaching after the run completed still receives every update
// exactly once plus the done frame, with zero drops.
func TestSSESubscriberAfterFinishSeesFullBacklog(t *testing.T) {
	ds := dataset(t)
	srv, err := New(Config{Source: StaticSource(ds.Store), ViewClock: simClock})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	atk := ds.Attacks[0]
	alert, _ := ds.Store.EventByID(atk.AlertID)
	run, err := srv.Manager().Submit("analyst", atk.Scripts[0], &alert, false, "")
	if err != nil {
		t.Fatal(err)
	}
	sum := run.Wait()
	if sum.State != "done" || sum.Updates == 0 {
		t.Fatalf("run = %+v", sum)
	}
	if n := srv.Manager().opening.Load(); n != 0 {
		t.Fatalf("the session ended, nobody attached: %d sessions still count as opening their stream", n)
	}

	for i := 0; i < 2; i++ { // replay is repeatable
		resp := mustGet(t, ts.URL+"/api/v1/sessions/"+run.ID+"/updates")
		frames := readSSE(t, bufio.NewReader(resp.Body), 0)
		resp.Body.Close()
		if len(frames) != sum.Updates+1 {
			t.Fatalf("replay %d: %d frames, want %d updates + done",
				i, len(frames), sum.Updates)
		}
		for j, f := range frames[:len(frames)-1] {
			if f.event != "update" {
				t.Fatalf("frame %d event = %q", j, f.event)
			}
		}
		if frames[len(frames)-1].event != "done" {
			t.Fatal("missing done frame")
		}
	}
}
