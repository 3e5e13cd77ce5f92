package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"
	_ "unsafe" // go:linkname

	"diagnet/internal/mat"
	"diagnet/internal/nn"
)

// matSkipZeros is mat's switch of the kernels' zero-skipping paths, which
// only tests turn off.
//
//go:linkname matSkipZeros diagnet/internal/mat.skipZeros
var matSkipZeros bool

// The matrix products skip the zeros a ReLU leaves — in the activations a
// head multiplies, in the gradient the trunk multiplies back, and in the
// input gradient of a Dense above a ReLU — and a served diagnosis has the
// same bits with the skipping on and off, in every pass size of a
// fragmented batch over every head and layout of the trained bundle. The
// rows' hidden activations are checked to be mostly zeros first, so that
// the comparison covers what it guards.
func TestSkippingZerosLeavesDiagnosesBitIdentical(t *testing.T) {
	b := trainedBundle(t)
	rows, _ := mixedCorpus(t, b)
	for i, share := range hiddenZeroShares(b, rows) {
		t.Logf("ReLU %d: %.1f %% of the activations are zero", i+1, 100*share)
		if share < 0.5 {
			t.Fatalf("ReLU %d leaves %.1f %% of the activations zero, want at least half", i+1, 100*share)
		}
	}

	defer func() { matSkipZeros = true }()
	sess := b.NewSession()
	for _, group := range fusedSizes(len(rows)) {
		matSkipZeros = true
		on := sess.DiagnoseRows(context.Background(), rows[:group])
		matSkipZeros = false
		off := sess.DiagnoseRows(context.Background(), rows[:group])
		for i := range on {
			if !reflect.DeepEqual(on[i], off[i]) || !slices.Equal(diagnosisBits(on[i]), diagnosisBits(off[i])) {
				t.Fatalf("%d-row pass: row %d (service %d) differs with the zero skipping on and off", group, i, rows[i].Service)
			}
		}
	}
}

// hiddenZeroShares returns, per ReLU of the network, the share of the
// activations it leaves at zero over rows, each run through its own
// model's network.
func hiddenZeroShares(b *Bundle, rows []Row) []float64 {
	var zeros, total []int
	for _, r := range rows {
		m := b.ModelFor(r.Service)
		act := mat.New(1, len(r.Features))
		m.Norm.ApplyInto(r.Features, r.Layout, act.Row(0))
		relu := 0
		for _, l := range m.Net.View().Layers {
			act = l.Forward(act)
			if _, ok := l.(*nn.ReLU); !ok {
				continue
			}
			if relu == len(zeros) {
				zeros, total = append(zeros, 0), append(total, 0)
			}
			for _, v := range act.Data {
				if v == 0 {
					zeros[relu]++
				}
			}
			total[relu] += len(act.Data)
			relu++
		}
	}
	shares := make([]float64, len(zeros))
	for i := range shares {
		shares[i] = float64(zeros[i]) / float64(total[i])
	}
	return shares
}

// diagnosisBits is the bit pattern of every score of a diagnosis
// (reflect.DeepEqual alone takes −0 for +0).
func diagnosisBits(d *Diagnosis) []uint64 {
	var bits []uint64
	for _, xs := range [][]float64{d.Coarse, d.Attention, d.Tuned, d.Final, {d.UnknownWeight}} {
		for _, x := range xs {
			bits = append(bits, math.Float64bits(x))
		}
	}
	return bits
}
