package pages

import "testing"

// TestPages: records keep their address as the store grows, pages come on
// first touch only, and Span cuts a range into one view per page, each capped
// at its own length.
func TestPages(t *testing.T) {
	var p Pages[int]
	if p.Cap() != 0 || len(p.Span(nil, 0, 0)) != 0 {
		t.Fatal("the zero store holds something")
	}
	first := p.At(0)
	const n = 2*Len + 7
	for i := 0; i < n; i++ {
		*p.At(i) = i
	}
	if p.At(0) != first || p.Get(0) != first {
		t.Fatal("record 0 moved while the store grew")
	}
	if p.Cap() != 3*Len {
		t.Fatalf("Cap = %d after %d records, want %d", p.Cap(), n, 3*Len)
	}
	*p.At(5 * Len) = -1 // a touch far ahead allocates its page alone
	if p.Cap() != 4*Len {
		t.Fatalf("Cap = %d after a touch in page 5, want %d", p.Cap(), 4*Len)
	}
	for _, r := range [][2]int{{0, 0}, {0, 1}, {3, Len - 1}, {3, Len}, {3, Len + 1}, {Len - 1, Len}, {Len, 2 * Len}, {Len + 1, n}, {0, n}} {
		views := p.Span(nil, r[0], r[1])
		next := r[0]
		for _, v := range views {
			if len(v) == 0 || cap(v) != len(v) || next/Len != (next+len(v)-1)/Len {
				t.Fatalf("Span(%d, %d): a view of len %d cap %d starting at record %d", r[0], r[1], len(v), cap(v), next)
			}
			for _, got := range v {
				if got != next {
					t.Fatalf("Span(%d, %d): record %d where %d belongs", r[0], r[1], got, next)
				}
				next++
			}
			if &v[0] != p.Get(next-len(v)) {
				t.Fatalf("Span(%d, %d) copied page %d", r[0], r[1], (next-1)/Len)
			}
		}
		if next != r[1] && r[0] < r[1] {
			t.Fatalf("Span(%d, %d) ends at %d", r[0], r[1], next)
		}
	}
	kept := p.Span(make([][]int, 1, 4), 0, 2)
	if len(kept) != 2 || kept[0] != nil {
		t.Fatal("Span does not append to its destination")
	}
}
