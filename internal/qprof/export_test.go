package qprof

// ObserveBatchOracle is the fold the profiler shipped with until store views
// began to aggregate: every sample applied to the totals, the skew ring, the
// heatmap and the recent ring on its own, in order. It survives as the oracle
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
		for _, ss := range s.Shards {
			c := p.heat.cell(heatKey{shard: ss.Shard, epoch: s.Epoch})
			c.accesses++
			c.rows += ss.Rows
			c.busyNs += ss.BusyNs
			if s.Obj >= 0 && ss.Rows > 0 {
				st := p.heat.hotStat(ss.Shard, s.Obj)
				st.rows += ss.Rows
				st.accesses++
			}
		}
		r := &p.recent[p.recentN%recentRingCap]
		shards := append(r.Shards[:0], s.Shards...)
		*r = *s
		r.Shards = shards
		p.recentN++
	}
}

// HotCap is the per-shard hot-object bound, for tests that cross it.
const HotCap = hotCap
