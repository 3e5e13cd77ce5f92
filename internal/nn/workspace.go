package nn

import "diagnet/internal/mat"

// Workspace is the memory of one forward/backward pass: a bump allocator
// the layers of a view (Network.ViewIn) take every activation, gradient and
// scratch vector from, so that a pass over a warm workspace allocates
// nothing.
//
// The lifetime rule: nothing a workspace hands out outlives the call that
// reset it. Reset takes everything back at once — the next pass overwrites
// it, matrix headers included — so whoever resets a workspace must first
// have copied out what it keeps.
//
// A request that does not fit the slab is served from the heap (what was
// handed out before stays where it is) and Reset then grows the slab to the
// pass's high-water mark: a session retains the memory of the largest pass
// it has seen. Memory from a workspace is not zeroed.
//
// The nil *Workspace is the heap: every request is a fresh zeroed
// allocation and Reset does nothing. That is what a Network outside a
// session — training, a plain View or Clone — runs on, through the same
// calls.
type Workspace struct {
	floats slab[float64]
	ints   slab[int]
	mats   []*mat.Matrix // headers, reused in order after Reset
	nmats  int
}

// slab is one bump-allocated array.
type slab[T any] struct {
	buf  []T
	used int // elements requested since reset, fitting or not
}

func (s *slab[T]) take(n int) []T {
	lo := s.used
	s.used += n
	if s.used > len(s.buf) {
		return make([]T, n)
	}
	return s.buf[lo:s.used:s.used]
}

func (s *slab[T]) reset() {
	if s.used > len(s.buf) {
		s.buf = make([]T, s.used)
	}
	s.used = 0
}

// Matrix returns a rows×cols matrix that is the caller's until Reset.
func (w *Workspace) Matrix(rows, cols int) *mat.Matrix {
	if w == nil {
		return mat.New(rows, cols)
	}
	if w.nmats == len(w.mats) {
		w.mats = append(w.mats, new(mat.Matrix))
	}
	m := w.mats[w.nmats]
	w.nmats++
	m.Rows, m.Cols, m.Data = rows, cols, w.floats.take(rows*cols)
	return m
}

// vector returns n floats that are the caller's until Reset.
func (w *Workspace) vector(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	return w.floats.take(n)
}

// indices returns n ints that are the caller's until Reset.
func (w *Workspace) indices(n int) []int {
	if w == nil {
		return make([]int, n)
	}
	return w.ints.take(n)
}

// Reset takes back everything handed out since the last Reset.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.floats.reset()
	w.ints.reset()
	w.nmats = 0
}
