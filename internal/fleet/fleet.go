// Package fleet runs many independent analyses concurrently over one shared
// sealed store.
//
// The paper's deployment serves a whole enterprise: hundreds of alerts a day
// fan out into backtracking analyses that all read the same event database.
// A Pool is the engine-side half of that story — a bounded worker pool that
// executes N independent jobs (typically one Executor run per starting
// event, each over its own store.View) on at most `workers` goroutines.
//
// Determinism: the pool imposes no ordering on execution, but Map collects
// results by job index, so aggregation order is the submission order no
// matter how the wall-clock scheduling interleaved. Jobs that charge
// per-run simulated clocks (store views) therefore produce results
// bit-for-bit identical to a serial loop.
package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"aptrace/internal/telemetry"
)

// Pool is a bounded worker pool for analysis runs. A Pool is stateless
// between calls and safe for concurrent use; the zero value is not valid —
// use New.
type Pool struct {
	workers int

	active   *telemetry.Gauge   // runs executing right now
	queued   *telemetry.Gauge   // runs submitted but not yet started
	runs     *telemetry.Counter // runs completed (success or failure)
	failures *telemetry.Counter // runs completed with an error
}

// New returns a pool running at most workers jobs concurrently; workers <= 0
// means GOMAXPROCS. A nil registry disables the pool gauges at no cost.
func New(workers int, reg *telemetry.Registry) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers:  workers,
		active:   reg.Gauge(telemetry.MetricFleetActive),
		queued:   reg.Gauge(telemetry.MetricFleetQueued),
		runs:     reg.Counter(telemetry.MetricFleetRuns),
		failures: reg.Counter(telemetry.MetricFleetFailures),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Map runs job(0..n-1) on the pool and returns the results indexed by job,
// independent of execution interleaving. (Generic methods are not allowed
// in Go, hence the free function.)
//
// The first error — lowest job index among failures — aborts the batch:
// jobs not yet started are skipped, jobs already running finish, and the
// error is returned wrapped with its job index. On success every slot of
// the returned slice is the corresponding job's value.
func Map[T any](p *Pool, n int, job func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	p.queued.Add(int64(n))

	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				p.queued.Add(-1)
				if failed.Load() {
					continue // a run failed; skip unstarted work
				}
				p.active.Add(1)
				v, err := job(i)
				p.active.Add(-1)
				p.runs.Inc()
				if err != nil {
					p.failures.Inc()
					errs[i] = err
					failed.Store(true)
					continue
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: run %d: %w", i, err)
		}
	}
	return results, nil
}

// ForEach is Map for jobs with no result value.
func ForEach(p *Pool, n int, job func(int) error) error {
	_, err := Map(p, n, func(i int) (struct{}, error) {
		return struct{}{}, job(i)
	})
	return err
}

// Runner executes individually submitted jobs on the pool's worker budget —
// the always-on counterpart to Map's batch shape. A daemon submits one job
// per arriving session; the Runner bounds both concurrency (the pool's
// worker count) and backlog (the queue capacity), so saturation surfaces as
// a failed TrySubmit the service layer can turn into admission control
// (HTTP 429) instead of unbounded queue growth.
type Runner struct {
	p    *Pool
	jobs chan func()
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// Runner starts the pool's workers consuming a bounded submission queue of
// the given capacity (minimum 1). Close releases the workers.
func (p *Pool) Runner(queue int) *Runner {
	if queue < 1 {
		queue = 1
	}
	r := &Runner{p: p, jobs: make(chan func(), queue)}
	for w := 0; w < p.workers; w++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			for job := range r.jobs {
				r.p.queued.Add(-1)
				r.p.active.Add(1)
				job()
				r.p.active.Add(-1)
				r.p.runs.Inc()
			}
		}()
	}
	return r
}

// TrySubmit enqueues job for execution, returning false without blocking
// when the queue is full or the runner is closed. Jobs own their error
// handling: a job that needs to report failure does so through its own
// captured state.
func (r *Runner) TrySubmit(job func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	r.p.queued.Add(1)
	select {
	case r.jobs <- job:
		return true
	default:
		r.p.queued.Add(-1)
		return false
	}
}

// Queue reports the runner's current queued-job count and queue capacity,
// for readiness probes and the self-watchdog's saturation stat.
func (r *Runner) Queue() (queued, capacity int) {
	return len(r.jobs), cap(r.jobs)
}

// Accepting reports whether TrySubmit can still enqueue work (the runner
// has not been closed; the queue may still be momentarily full).
func (r *Runner) Accepting() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.closed
}

// Close stops intake and blocks until every already-accepted job — running
// or still queued — has finished. Safe to call more than once.
func (r *Runner) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.jobs)
	}
	r.mu.Unlock()
	r.wg.Wait()
}
