// Package pages is the repository's one paged record store: what a run's
// log (internal/explain) keeps its records in, the dependency graph
// its node and edge logs, the executor its per-node state and a served
// session its update history.
package pages

// Len is the number of records in one page: few enough that a page of any
// record kept here (the largest, a session's update, is 80 bytes) stays under
// the allocator's 32 KB small-object limit, so a short run's first pages come
// from the per-P cache and not from the heap lock.
const Len = 1 << 8

// Pages stores fixed-size records by index in pages of Len that are allocated
// when first touched and never regrown or copied: growing costs one page, not
// a copy of everything kept, a holder that wraps reuses its pages, and a
// record's address — so a slice of a page handed to a reader — stays good for
// the life of the store. The zero value is an empty store.
type Pages[T any] struct {
	pages [][]T
}

// At returns the slot of index i, allocating its page if this is the first
// touch.
func (p *Pages[T]) At(i int) *T {
	pg := i / Len
	for len(p.pages) <= pg {
		p.pages = append(p.pages, nil)
	}
	if p.pages[pg] == nil {
		p.pages[pg] = make([]T, Len)
	}
	return &p.pages[pg][i%Len]
}

// Get returns the slot of index i, which At has touched before: the read
// that inlines.
func (p *Pages[T]) Get(i int) *T { return &p.pages[i/Len][i%Len] }

// Cap is the number of records the store holds storage for.
func (p *Pages[T]) Cap() int {
	n := 0
	for _, pg := range p.pages {
		n += len(pg)
	}
	return n
}

// Span appends to dst the records [from, to), all of which must have been
// touched, as one sub-slice per page they lie on, and returns it. The
// sub-slices alias the pages: they are views, not copies.
func (p *Pages[T]) Span(dst [][]T, from, to int) [][]T {
	for from < to {
		end := (from/Len + 1) * Len
		if end > to {
			end = to
		}
		pg := p.pages[from/Len]
		lo, hi := from%Len, from%Len+end-from
		dst = append(dst, pg[lo:hi:hi])
		from = end
	}
	return dst
}
