package store

import (
	"encoding/binary"
	"hash/fnv"
)

// ChargeReplay bills the cost model for a logical query without executing
// it: rows examined plus the bucket span of [from, to), exactly as charge()
// would for a real posting walk. It drives the same stats counters, the same
// telemetry, the same cost observer, and the same simulated-clock advance.
//
// This is the hook result caches sit on: a cache hit must still pay the
// logical query's simulated cost so that acceleration never changes charged
// cost (the PR 4 invariant). A rows value of NoCharge is a no-op, mirroring
// attribute evaluations whose type guard returned before any charge.
func (s *Store) ChargeReplay(rows, from, to int64) error {
	if !s.sealed {
		return ErrNotSealed
	}
	if rows == NoCharge {
		return nil
	}
	s.charge(rows, from, to)
	return nil
}

// ContentSignature returns a cheap fingerprint of the sealed event log:
// event count, object count, time range, and the first and last event IDs.
// Views share their parent's log, so a view's signature equals its parent's.
//
// Within one store lineage — a live store resealed as it ingests, or any
// append-only pipeline — the signature changes whenever the sealed content
// changes, which is what result caches key on to invalidate across reseals.
// It is not a collision-resistant hash across unrelated datasets; a cache
// must only ever be shared among stores from one lineage.
//
// A store with several parts additionally folds in their composition — part
// count, routing epoch, and every part's (count, extent) — so resharding
// the same events produces a different signature and a result cache can
// never replay a closure computed under a different partitioning. A
// one-part store's signature is unchanged from earlier releases.
func (s *Store) ContentSignature() (uint64, error) {
	if !s.sealed {
		return 0, ErrNotSealed
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	n := s.NumEvents()
	put(uint64(n))
	put(uint64(len(s.objects)))
	put(uint64(s.minTime))
	put(uint64(s.maxTime))
	if n > 0 {
		put(uint64(s.EventAt(0).ID))
		put(uint64(s.EventAt(n - 1).ID))
	}
	if len(s.parts) > 1 {
		put(uint64(len(s.parts)))
		put(uint64(s.ShardEpochSeconds()))
		for _, p := range s.parts {
			put(uint64(len(p.events)))
			put(uint64(p.minTime))
			put(uint64(p.maxTime))
		}
	}
	return h.Sum64(), nil
}
