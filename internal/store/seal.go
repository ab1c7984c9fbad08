package store

import (
	"runtime"
	"sync"

	"aptrace/internal/event"
)

// sealParallelCutoff is the event count below which an auto-configured Seal
// stays serial: goroutine fan-out costs more than it saves on small logs.
const sealParallelCutoff = 1 << 14

// WithSealWorkers fixes the number of workers Seal spends on building the
// posting indexes, split across the parts. Zero (the default) picks
// runtime.GOMAXPROCS(0) for large logs and one for small ones. Any worker
// count produces bit-identical indexes: each part's sort is keyed on (time,
// arrival) and the chunked index build preserves event-log order per object.
func WithSealWorkers(n int) Option {
	return func(st *Store) { st.sealWorkers = n }
}

// Seal sorts every part's event log by time (ties keep their ingestion
// order), builds the struct-of-arrays posting indexes, the global time-order
// directory and the event-ID index, and enables queries. The result is
// identical for any worker count and any GOMAXPROCS. Sealing an
// already-sealed store is an error.
func (s *Store) Seal() error {
	if s.sealed {
		return ErrSealed
	}
	n := s.NumEvents()
	workers := s.sealWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if n < sealParallelCutoff {
			workers = 1
		}
	}
	s.sealParts(max(min(workers, n), 1))
	s.stats.Events = n
	s.stats.Objects = len(s.objects)
	s.sealed = true
	return nil
}

// chunkBounds splits n items into workers contiguous ranges; bounds[w] is
// the start of chunk w and bounds[workers] == n.
func chunkBounds(n, workers int) []int {
	bounds := make([]int, workers+1)
	for i := range bounds {
		bounds[i] = i * n / workers
	}
	return bounds
}

// buildPostings constructs the byDst and bySrc CSR indexes over a time-sorted
// event log with a sharded two-pass build: workers count endpoint occurrences
// per contiguous chunk, a serial prefix-sum pass turns the per-chunk counts
// into disjoint write cursors, and workers then fill their slots in event-log
// order. Chunk c's slots for an object precede chunk c+1's, so the per-object
// ordering — and therefore the whole index — is identical for any worker
// count.
func buildPostings(events []event.Event, numObjects, workers int) (byDst, bySrc *postings) {
	n := len(events)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bounds := chunkBounds(n, workers)

	dstCounts := make([][]int32, workers)
	srcCounts := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dc := make([]int32, numObjects)
			sc := make([]int32, numObjects)
			for i := bounds[w]; i < bounds[w+1]; i++ {
				dc[events[i].Dst()]++
				sc[events[i].Src()]++
			}
			dstCounts[w] = dc
			srcCounts[w] = sc
		}()
	}
	wg.Wait()

	byDst = &postings{off: make([]int32, numObjects+1), idx: make([]int32, n), times: make([]int64, n)}
	bySrc = &postings{off: make([]int32, numObjects+1), idx: make([]int32, n), times: make([]int64, n)}
	// Prefix sums: convert each chunk's per-object count into that chunk's
	// starting write cursor while accumulating the global offsets.
	var dtot, stot int32
	for obj := 0; obj < numObjects; obj++ {
		byDst.off[obj] = dtot
		bySrc.off[obj] = stot
		for w := 0; w < workers; w++ {
			c := dstCounts[w][obj]
			dstCounts[w][obj] = dtot
			dtot += c
			c = srcCounts[w][obj]
			srcCounts[w][obj] = stot
			stot += c
		}
	}
	byDst.off[numObjects] = dtot
	bySrc.off[numObjects] = stot

	// Parallel fill: each chunk advances its private cursors, so writes land
	// in disjoint slots and per-object order follows event-log order.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dcur, scur := dstCounts[w], srcCounts[w]
			for i := bounds[w]; i < bounds[w+1]; i++ {
				e := &events[i]
				p := dcur[e.Dst()]
				byDst.idx[p] = int32(i)
				byDst.times[p] = e.Time
				dcur[e.Dst()] = p + 1
				p = scur[e.Src()]
				bySrc.idx[p] = int32(i)
				bySrc.times[p] = e.Time
				scur[e.Src()] = p + 1
			}
		}()
	}
	wg.Wait()
	return byDst, bySrc
}
