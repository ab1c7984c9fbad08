package qprof

// Untimed returns what p has counted, with what it timed — real CPU,
// different on every run — zeroed: the part of a profile that two runs of
// the same queries share.
func (p *Profiler) Untimed() Counted {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.totals
	t.busyNs, t.mergeNs, t.savableNs = 0, 0, 0
	for k := range t.byKind {
		t.byKind[k].busyNs, t.byKind[k].mergeNs = 0, 0
	}
	return Counted{t}
}

// Counted is an untimed profile, comparable with ==.
type Counted struct{ t totals }

// Queries, Scattered and Kinds read a Counted: queries in total, those that
// touched several shards, and how many kinds of query it saw.
func (c Counted) Queries() int64   { return c.t.queries }
func (c Counted) Scattered() int64 { return c.t.scattered }
func (c Counted) Kinds() int {
	n := 0
	for _, k := range c.t.byKind {
		if k.queries > 0 {
			n++
		}
	}
	return n
}
