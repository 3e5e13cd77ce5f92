package nn

import (
	"slices"
	"testing"

	"diagnet/internal/mat"
)

// What a workspace hands out stays valid and where it is until Reset, also
// across the request that overflows the slab; Reset then sizes the slab to
// the high-water mark, and the same requests are served from it without an
// allocation.
func TestWorkspaceGrowsToTheHighWaterMark(t *testing.T) {
	ws := new(Workspace)
	requests := func() (a, b, c *mat.Matrix) {
		return ws.Matrix(3, 4), ws.Matrix(10, 10), ws.Matrix(2, 5)
	}
	ws.Matrix(4, 4) // one pass of 16 floats, so that the next Reset leaves a slab of 16
	ws.Reset()

	a, b, c := requests() // a fits, b overflows, c is behind the overflow
	if &a.Data[0] != &ws.floats.buf[0] {
		t.Fatal("the first matrix of a pass is not the start of the slab")
	}
	a.Fill(1)
	b.Fill(2)
	c.Fill(3)
	ws.vector(7)[0] = 4
	ws.indices(5)[0] = 5
	if &a.Data[0] != &ws.floats.buf[0] || a.Rows != 3 || a.Cols != 4 || a.Data[11] != 1 || b.Data[99] != 2 || c.Data[9] != 3 {
		t.Fatal("a matrix handed out before the overflow moved or was overwritten by a later request")
	}

	ws.Reset()
	if got, want := len(ws.floats.buf), 12+100+10+7; got != want {
		t.Fatalf("after Reset the slab holds %d floats, want the pass's high-water mark %d", got, want)
	}
	if len(ws.ints.buf) != 5 {
		t.Fatalf("after Reset the int slab holds %d, want 5", len(ws.ints.buf))
	}
	pass := func() {
		ws.Reset()
		a, b, c = requests()
		ws.vector(7)
		ws.indices(5)
	}
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("a same-shaped pass over a sized workspace allocates %v times, want 0", allocs)
	}
	if &a.Data[0] != &ws.floats.buf[0] || &b.Data[0] != &ws.floats.buf[12] || &c.Data[0] != &ws.floats.buf[112] {
		t.Fatal("the matrices of a pass are not laid out back to back in the slab")
	}
	if cap(a.Data) != 12 {
		t.Fatalf("a workspace matrix can be appended into its neighbour: cap %d, len 12", cap(a.Data))
	}
}

// The nil workspace is the heap: fresh zeroed memory on every request, and
// Reset is a no-op.
func TestNilWorkspaceIsTheHeap(t *testing.T) {
	var ws *Workspace
	a := ws.Matrix(2, 3)
	a.Fill(7)
	ws.Reset()
	b := ws.Matrix(2, 3)
	if a == b || &a.Data[0] == &b.Data[0] || a.Data[0] != 7 {
		t.Fatal("a nil workspace must hand out fresh heap matrices")
	}
	for _, v := range append(append(b.Data, ws.vector(4)...), float64(ws.indices(4)[3])) {
		if v != 0 {
			t.Fatal("a nil workspace must hand out zeroed memory")
		}
	}
}

// A view on a workspace computes what a heap view computes, bit for bit —
// on dirty memory too: the second pass runs over what the first one left —
// and allocates nothing once the workspace has seen the pass.
func TestViewInWorkspaceMatchesHeapView(t *testing.T) {
	net := attentionNet(31, 3)
	ws := new(Workspace)
	v := net.ViewIn(ws)
	for _, rows := range []int{5, 1, 5} {
		x := normalBatch(int64(40+rows), rows, 4*3+2)
		wantG, wantP := net.View().InputGradientBatch(x, nil)
		wantY := net.View().Predict(x)
		pass := func() (g, p *mat.Matrix) {
			ws.Reset()
			return v.InputGradientBatch(x, nil)
		}
		pass()
		gotG, gotP := pass()
		if !slices.Equal(wantG.Data, gotG.Data) || !slices.Equal(wantP.Data, gotP.Data) {
			t.Fatalf("%d rows: the workspace view's gradient or probabilities differ from the heap view's", rows)
		}
		if allocs := testing.AllocsPerRun(10, func() { pass() }); allocs != 0 {
			t.Fatalf("%d rows: a pass over a sized workspace allocates %v times, want 0", rows, allocs)
		}
		ws.Reset()
		if gotY := v.Predict(x); !slices.Equal(wantY.Data, gotY.Data) {
			t.Fatalf("%d rows: the workspace view's prediction differs from the heap view's", rows)
		}
	}
}
