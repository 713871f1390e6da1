// Package arena provides per-worker slab allocators. Bor-ALM is the
// paper's Bor-AL variant with private per-thread memory segments replacing
// the contended shared heap; here each worker owns Slabs that hand out
// subslices of large private pages, so the compact-graph hot path
// performs no shared-allocator work and generates no per-list garbage.
package arena

import (
	"unsafe"

	"pmsf/internal/obs"
)

// grew reports n freshly allocated elements of size elemSize to the
// process-wide arena-bytes counter.
func grew(n int, elemSize uintptr) {
	obs.ArenaBytes.Add(int64(n) * int64(elemSize))
}

// Slab hands out subslices of type T carved from private pages. It is NOT
// safe for concurrent use: create one per worker.
//
// Alloc returns memory that may contain stale data from a previous Reset
// cycle; callers must fully overwrite what they use.
type Slab[T any] struct {
	pages    [][]T
	active   int // index of the page currently being carved
	off      int // next free slot in the active page
	pageSize int
	allocs   int64
	elems    int64
}

// NewSlab returns a slab whose pages hold pageSize elements each.
// Requests larger than pageSize get dedicated oversized pages.
func NewSlab[T any](pageSize int) *Slab[T] {
	if pageSize < 1 {
		pageSize = 1 << 16
	}
	return &Slab[T]{pageSize: pageSize, active: -1}
}

// Alloc returns a slice of n elements backed by the slab.
func (s *Slab[T]) Alloc(n int) []T {
	s.allocs++
	s.elems += int64(n)
	if n > s.pageSize {
		// Oversized request: dedicated page inserted behind the active one
		// so the active page keeps filling.
		page := make([]T, n)
		grew(n, unsafe.Sizeof(page[0]))
		if s.active < 0 {
			s.pages = append(s.pages, page)
			s.active = 0
			s.off = n
			return page
		}
		s.pages = append(s.pages, nil)
		copy(s.pages[s.active+1:], s.pages[s.active:])
		s.pages[s.active] = page
		s.active++
		return page
	}
	if s.active < 0 || s.off+n > len(s.pages[s.active]) {
		s.advance(n)
	}
	out := s.pages[s.active][s.off : s.off+n : s.off+n]
	s.off += n
	return out
}

// advance moves to the next page with room for n, allocating one if none
// exists yet.
func (s *Slab[T]) advance(n int) {
	for i := s.active + 1; i < len(s.pages); i++ {
		if len(s.pages[i]) >= n {
			s.active = i
			s.off = 0
			return
		}
	}
	page := make([]T, s.pageSize)
	grew(s.pageSize, unsafe.Sizeof(page[0]))
	s.pages = append(s.pages, page)
	s.active = len(s.pages) - 1
	s.off = 0
}

// Reset makes all previously allocated memory available again without
// returning pages to the garbage collector.
func (s *Slab[T]) Reset() {
	if len(s.pages) > 0 {
		s.active = 0
	} else {
		s.active = -1
	}
	s.off = 0
}

// Stats returns the number of Alloc calls and total elements handed out
// since creation (across Resets).
func (s *Slab[T]) Stats() (allocs, elems int64) { return s.allocs, s.elems }

// Pages returns how many pages the slab owns (for tests and memory
// accounting).
func (s *Slab[T]) Pages() int { return len(s.pages) }
