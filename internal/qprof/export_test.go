package qprof

// ObserveBatchOracle is the fold the profiler shipped with until store views
// began to aggregate: every sample applied to the totals, the skew ring and
// the recent ring on its own, in order. It survives as the oracle
// TestProfileAggregateMatchesPerSample holds Aggregate and Fold to.
func (p *Profiler) ObserveBatchOracle(batch []Sample) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range batch {
		s := &batch[i]
		p.queries++
		p.fanoutSum += int64(s.Fanout)
		p.rows += s.Rows
		p.busyNs += s.BusyNs
		p.savableNs += s.SavableNs
		p.mergeNs += s.MergeNs
		if int(s.Kind) < len(p.byKind) {
			a := &p.byKind[s.Kind]
			a.queries++
			a.rows += s.Rows
			a.busyNs += s.BusyNs
			a.mergeNs += s.MergeNs
		}
		if s.Fanout > 1 {
			p.scattered++
			if sk := s.Skew(); sk > 0 {
				p.skews[p.skewN%skewRingCap] = sk
				p.skewN++
			}
		}
		r := &p.recent[p.recentN%recentRingCap]
		shards := append(r.Shards[:0], s.Shards...)
		*r = *s
		r.Shards = shards
		p.recentN++
	}
}
