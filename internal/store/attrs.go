package store

import (
	"aptrace/internal/event"
	"aptrace/internal/qprof"
)

// Computed object attributes used by BDL heuristics (paper Section IV-C,
// Program 3). Both are defined over an analysis time range, because whether
// a file is "read-only" or a process is a "write-through helper" depends on
// the window under investigation, not on all history.
//
// These are modeled as index-backed aggregate queries and charge the cost
// model for the posting entries they examine: exactly the rows one ordered
// walk over the object's whole posting list would visit, however many parts
// hold it. The full-range aggregate (FileTimes) is order-independent and
// folds per-run partials. The early-exit predicates
// (read-only, write-through) stop at the first disqualifying event in global
// order, so every run finds its own first disqualifier, the earliest of them
// by (time, seq) wins, and the charge is the rows preceding it across all
// runs plus itself. A run may walk more rows than are charged (it keeps
// scanning past another run's earlier disqualifier); that is real CPU only,
// and is what a scatter can parallelize.

// NoCharge is the row count the *Rows attribute variants return when a type
// guard short-circuited the evaluation before any posting rows were examined
// and therefore no charge was made. Distinguishing it from a zero-row charge
// matters to callers that replay charges from a cache: charging zero rows
// still bills one seek, while NoCharge bills nothing.
const NoCharge int64 = -1

// IsReadOnlyFile reports whether obj is a file that received no mutating
// event (write, create, delete, rename, chmod) within [from, to).
// Non-file objects are never read-only.
func (s *Store) IsReadOnlyFile(obj event.ObjID, from, to int64) (bool, error) {
	v, _, err := s.IsReadOnlyFileRows(obj, from, to)
	return v, err
}

// IsReadOnlyFileRows is IsReadOnlyFile plus the number of posting rows the
// evaluation examined — the rows already charged to the cost model, or
// NoCharge when the type guard returned before any charge. Callers that
// cache the verdict need this to replay the identical charge (or its
// absence) on a cache hit.
func (s *Store) IsReadOnlyFileRows(obj event.ObjID, from, to int64) (bool, int64, error) {
	if !s.sealed {
		return false, NoCharge, ErrNotSealed
	}
	if s.objects[obj].Type != event.ObjFile {
		return false, NoCharge, nil
	}
	var scratch [MaxShards]run
	runs, _, total := s.collect(scratch[:0], obj, false, from, to)
	acc, durs := s.walkRuns(walkReadOnly, runs, total)
	rows := s.chargedRows(runs, acc, total)
	s.charge(rows, from, to)
	s.noteRuns(qprof.KindReadOnly, runs, rows, durs)
	return acc.run < 0, rows, nil
}

// IsWriteThrough reports whether obj is a "write-through" helper process
// within [from, to): a process whose every interaction (other than loading
// its own libraries) is with process objects, i.e. it only shuttles data
// between its parent and children without touching files or the network.
func (s *Store) IsWriteThrough(obj event.ObjID, from, to int64) (bool, error) {
	v, _, err := s.IsWriteThroughRows(obj, from, to)
	return v, err
}

// IsWriteThroughRows is IsWriteThrough plus the charged row count (NoCharge
// when the type guard made no charge), for callers that replay charges from
// a cache.
func (s *Store) IsWriteThroughRows(obj event.ObjID, from, to int64) (bool, int64, error) {
	if !s.sealed {
		return false, NoCharge, ErrNotSealed
	}
	if s.objects[obj].Type != event.ObjProcess {
		return false, NoCharge, nil
	}
	qp, b := s.sampling()
	var rows int64
	seen, through := false, true
	// The incoming index first, the outgoing one only if the helper is still
	// in the running: a non-load event whose counterpart is not a process
	// disqualifies it.
	var scratch [MaxShards]run
	for _, forward := range [2]bool{false, true} {
		runs, _, total := s.collect(scratch[:0], obj, forward, from, to)
		acc, durs := s.walkRuns(walkWriteThrough, runs, total)
		rows += s.chargedRows(runs, acc, total)
		seen = seen || acc.nonLoad
		s.split(b, runs, durs)
		if acc.run >= 0 {
			through = false
			break
		}
	}
	s.charge(rows, from, to)
	if b != nil {
		s.emit(qp, b, qprof.KindWriteThrough, rows, 0)
	}
	return seen && through, rows, nil
}

// FileTimes returns the file-time attributes BDL exposes for file objects
// within [from, to): creation time (first create event), last modification
// time (last mutating event), and last access time (last read). A zero value
// means "no such event in range".
func (s *Store) FileTimes(obj event.ObjID, from, to int64) (creation, lastMod, lastAccess int64, err error) {
	creation, lastMod, lastAccess, _, err = s.FileTimesRows(obj, from, to)
	return creation, lastMod, lastAccess, err
}

// FileTimesRows is FileTimes plus the charged row count, for callers that
// replay charges from a cache. FileTimes has no type guard, so rows is
// always >= 0 on success.
func (s *Store) FileTimesRows(obj event.ObjID, from, to int64) (creation, lastMod, lastAccess, rows int64, err error) {
	if !s.sealed {
		return 0, 0, 0, NoCharge, ErrNotSealed
	}
	// Mutations flow into the file, accesses out of it (the file is the
	// source of a read): the runs of both endpoint indexes are one probe.
	var scratch [2 * MaxShards]run
	runs, _, dstTotal := s.collect(scratch[:0], obj, false, from, to)
	runs, _, srcTotal := s.collect(runs, obj, true, from, to)
	acc, durs := s.walkRuns(walkFileTimes, runs, dstTotal+srcTotal)
	rows = int64(dstTotal + srcTotal)
	s.charge(rows, from, to)
	s.noteRuns(qprof.KindFileTimes, runs, rows, durs)
	return acc.created, acc.modified, acc.accessed, rows, nil
}

// walkKind names one of the three attribute walks over a posting run.
type walkKind uint8

const (
	walkReadOnly walkKind = iota
	walkWriteThrough
	walkFileTimes
)

// partial is what walking one run found, and — folded over every run of a
// probe — the whole walk's result.
type partial struct {
	// Early-exit walks: the posting position of the run's first disqualifier
	// (hit < 0: none) and, after folding, the run that holds the globally
	// first one (run < 0: none).
	run, hit int32
	nonLoad  bool // write-through: a non-load event was seen

	created, modified, accessed int64 // FileTimes; 0 = no such event
}

// walkRun evaluates one attribute walk over one run, in time order.
func (s *Store) walkRun(k walkKind, r run) partial {
	p, pl := s.cols(r)
	events, idx := p.events, pl.idx[r.lo:r.hi]
	out := partial{run: -1, hit: -1}
	switch k {
	case walkReadOnly:
		for j, q := range idx {
			switch events[q].Action {
			case event.ActWrite, event.ActCreate, event.ActDelete, event.ActRename, event.ActChmod:
				out.hit = r.lo + int32(j)
				return out
			}
		}
	case walkWriteThrough:
		for j, q := range idx {
			e := &events[q]
			if e.Action == event.ActLoad {
				continue // image/library loads do not disqualify a helper
			}
			out.nonLoad = true
			other := e.Src()
			if r.fwd {
				other = e.Dst()
			}
			if s.objects[other].Type != event.ObjProcess {
				out.hit = r.lo + int32(j)
				return out
			}
		}
	case walkFileTimes:
		if r.fwd {
			for _, q := range idx {
				if e := &events[q]; e.Action == event.ActRead || e.Action == event.ActLoad {
					out.accessed = e.Time
				}
			}
			break
		}
		for _, q := range idx {
			e := &events[q]
			switch e.Action {
			case event.ActCreate:
				if out.created == 0 {
					out.created = e.Time
				}
				out.modified = e.Time
			case event.ActWrite, event.ActRename, event.ActChmod, event.ActDelete:
				out.modified = e.Time
			}
		}
	}
	return out
}

// fold merges run ri's partial into acc. Runs are ascending in time, so the
// first create is the minimum nonzero creation, the "last X" are maxima, and
// the first disqualifier is the (time, seq) minimum over the runs' own.
func (s *Store) fold(acc *partial, runs []run, ri int, p *partial) {
	if p.hit >= 0 && (acc.run < 0 || s.hitBefore(runs[ri], p.hit, runs[acc.run], acc.hit)) {
		acc.run, acc.hit = int32(ri), p.hit
	}
	acc.nonLoad = acc.nonLoad || p.nonLoad
	if p.created != 0 && (acc.created == 0 || p.created < acc.created) {
		acc.created = p.created
	}
	acc.modified = max(acc.modified, p.modified)
	acc.accessed = max(acc.accessed, p.accessed)
}

// hitBefore orders posting entry a of run ra against entry b of run rb.
func (s *Store) hitBefore(ra run, a int32, rb run, b int32) bool {
	pa, pla := s.cols(ra)
	pb, plb := s.cols(rb)
	return before(pa, pla.idx[a], pb, plb.idx[b])
}

// walkRuns evaluates one attribute walk over every run of a probe and folds
// the partials. Runs of one part, or a window-sized probe, are walked in
// place with no allocation; a big probe that spans parts is a timed scatter,
// whose per-run busy nanos are returned for the profiler.
func (s *Store) walkRuns(k walkKind, runs []run, total int) (acc partial, durs []int64) {
	acc.run = -1
	if !scattered(spread(runs) > 1, total) {
		for ri, r := range runs {
			p := s.walkRun(k, r)
			s.fold(&acc, runs, ri, &p)
		}
		return acc, nil
	}
	// The scatter's goroutines get heap copies: they must not pin the
	// caller's stack scratch.
	legs := append([]run(nil), runs...)
	found := make([]partial, len(legs))
	durs = s.scatter(len(legs), func(i int) { found[i] = s.walkRun(k, legs[i]) })
	for ri := range found {
		s.fold(&acc, runs, ri, &found[ri])
	}
	return acc, durs
}

// chargedRows is what an early-exit walk charges: the whole window when no
// run held a disqualifier, else the rows that precede the first one in
// global order, in every run, plus itself.
func (s *Store) chargedRows(runs []run, acc partial, total int) int64 {
	if acc.run < 0 {
		return int64(total)
	}
	first := runs[acc.run]
	rows := int64(acc.hit-first.lo) + 1
	for ri, r := range runs {
		if ri != int(acc.run) {
			rows += int64(s.rowsBefore(r, first, acc.hit))
		}
	}
	return rows
}

// rowsBefore counts the entries of run r that precede entry hit of another
// part's run in global order: binary search on time, then a short seq walk
// across the equal-time span (posting entries are (time, seq)-sorted within
// a part).
func (s *Store) rowsBefore(r, other run, hit int32) int32 {
	p, pl := s.cols(r)
	op, opl := s.cols(other)
	t, seq := opl.times[hit], op.seq[opl.idx[hit]]
	j := r.lo + int32(searchTimes(pl.times[r.lo:r.hi], t))
	for j < r.hi && pl.times[j] == t && p.seq[pl.idx[j]] < seq {
		j++
	}
	return j - r.lo
}
