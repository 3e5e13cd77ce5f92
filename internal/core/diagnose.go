package core

import (
	"context"
	"math"
	"slices"
	"sort"

	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// Diagnosis is the output of DiagNet for one degraded sample: the coarse
// family prediction plus per-feature root-cause scores at every stage of
// the pipeline (attention → Algorithm 1 weighting → ensemble averaging).
// Scores are indexed by the features of the inference layout.
type Diagnosis struct {
	Layout probe.Layout
	// Coarse is the softmax distribution over the c fault families.
	Coarse []float64
	// Family is the arg-max coarse family.
	Family probe.Family
	// Attention is γ̂, the normalized input-gradient usefulness (Eq. 1).
	Attention []float64
	// Tuned is γ̂′ after the multi-label score weighting of Algorithm 1.
	Tuned []float64
	// UnknownWeight is w_U, the tuned attention mass on features of
	// landmarks unseen during training (§III-F).
	UnknownWeight float64
	// Final is the ensemble-averaged score vector used for ranking.
	Final []float64
}

// Ranked returns the feature indices sorted by decreasing final score.
// Ties break on the lower index for determinism.
func (d *Diagnosis) Ranked() []int {
	idx := make([]int, len(d.Final))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return d.Final[idx[a]] > d.Final[idx[b]] })
	return idx
}

// Top returns the first k entries of Ranked (all of them when k exceeds
// the feature count) without ranking the rest: a selection that keeps the
// best k seen so far in order, which for the handful of causes a reply
// carries beats sorting every feature.
func (d *Diagnosis) Top(k int) []int {
	k = min(k, len(d.Final))
	top := make([]int, 0, k)
	for j, v := range d.Final {
		// j goes behind every kept feature that scores at least v: those
		// have lower indices, which is Ranked's tie-break.
		at := len(top)
		for at > 0 && d.Final[top[at-1]] < v {
			at--
		}
		if at == k {
			continue
		}
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[at+1:], top[at:])
		top[at] = j
	}
	return top
}

// Diagnose runs the full DiagNet pipeline on a raw measurement vector
// collected under `layout` (which may contain landmarks the model never
// saw during training — the whole point of root-cause extensibility). It
// is a one-row Session.DiagnoseBatch on a pooled session, safe for
// concurrent use.
func (m *Model) Diagnose(features []float64, layout probe.Layout) *Diagnosis {
	return m.DiagnoseContext(context.Background(), features, layout)
}

// DiagnoseContext is Diagnose carrying a request context; see
// Session.DiagnoseRows for what it records on an active trace.
func (m *Model) DiagnoseContext(ctx context.Context, features []float64, layout probe.Layout) *Diagnosis {
	s := m.acquire()
	defer m.sessions.Put(s)
	return s.diagnoseBatch(ctx, [][]float64{features}, layout)[0]
}

// scratch holds a session's reusable bookkeeping — the pass's row order
// and groups, and the intermediates of the pipeline stages after it. The
// pass's matrices are not here: they belong to the session's workspace.
type scratch struct {
	rows   []Row // DiagnoseBatch's rows
	headOf []int // per row: index of its head
	ends   []int // per head: end of its run of order
	order  []int // row indices, head by head

	groups []widthGroup
	probs  [][]float64 // per position: coarse distribution (a workspace row)
	grads  [][]float64 // per position: input gradient (a workspace row)

	fullVec []float64 // aux forest full-layout projection
	scores  []float64 // aux forest full-layout cause scores
}

// widthGroup is the rows of one pass that carry the same number of
// features, hence of landmarks: what one LandPool pass takes.
type widthGroup struct {
	width int
	pos   []int       // the group's positions in the pass
	x     *mat.Matrix // normalized inputs (a workspace matrix)
}

// grow returns buf resized to n, reusing capacity when possible.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// newDiagnosis starts one row's Diagnosis: the coarse distribution, copied
// out of the pass's workspace, and the auxiliary forest's per-feature
// scores α̂ (§III-F), parked in Final until attend averages them in.
// Everything the Diagnosis keeps lives in one slab allocated here, because
// a Diagnosis outlives the pass; sc holds the forest's intermediates.
func (m *Model) newDiagnosis(coarse, features []float64, layout probe.Layout, sc *scratch) *Diagnosis {
	c, w := len(coarse), layout.NumFeatures()
	slab := make([]float64, c+3*w)
	d := &Diagnosis{
		Layout:    layout,
		Coarse:    slab[:c:c],
		Family:    probe.Family(nn.Argmax(coarse)),
		Attention: slab[c : c+w : c+w],
		Tuned:     slab[c+w : c+2*w : c+2*w],
		Final:     slab[c+2*w:],
	}
	copy(d.Coarse, coarse)
	sc.fullVec = grow(sc.fullVec, m.FullLayout.NumFeatures())
	sc.scores = grow(sc.scores, m.Aux.Causes())
	m.auxScoresInto(features, layout, sc.fullVec, sc.scores, d.Final)
	return d
}

// attend finishes a Diagnosis from its row's input gradient, a row of the
// pass's workspace that is only read: Eq. 1 attention, Algorithm 1
// weighting, and the ensemble average w_U γ̂′ + (1−w_U) α̂ over the forest
// scores newDiagnosis left in Final.
func (m *Model) attend(d *Diagnosis, grad []float64) {
	// Equation 1: γ̂_j = |∇_j| / Σ|∇_k|.
	attention := d.Attention
	var sum float64
	for i, g := range grad {
		attention[i] = math.Abs(g)
		sum += attention[i]
	}
	if sum > 0 {
		for i := range attention {
			attention[i] /= sum
		}
	} else {
		// Degenerate gradient: fall back to a uniform distribution.
		u := 1 / float64(len(attention))
		for i := range attention {
			attention[i] = u
		}
	}

	layout := d.Layout
	tuned := scoreWeighting(d.Tuned, attention, d.Coarse, layout, d.Family)

	// Ensemble averaging (§III-F): w_U γ̂′ + (1−w_U) α̂.
	var wU float64
	for j := range tuned {
		if !layout.IsLocal(j) && !m.Known[layout.Landmarks[j/int(probe.NumMetrics)]] {
			wU += tuned[j]
		}
	}
	for j := range d.Final {
		d.Final[j] = wU*tuned[j] + (1-wU)*d.Final[j]
	}
	d.UnknownWeight = wU
}

// scoreWeighting is Algorithm 1 (multi-label score weighting): features of
// the same family as the best coarse prediction φ receive the bonus w/s,
// every other feature the penalty (1−w)/(1−s). The result is written to
// tuned, as long as gamma, and returned.
func scoreWeighting(tuned, gamma, coarse []float64, layout probe.Layout, fam probe.Family) []float64 {
	copy(tuned, gamma)
	// p ← features with the same family as φ. Membership is recomputed
	// from the layout on the second pass instead of materializing p — the
	// old index-set map was the hot path's largest allocation.
	np := 0
	var s float64 // s ← Σ_{j∈p} γ̂_j
	for j := range gamma {
		if layout.FamilyOf(j) == fam {
			np++
			s += gamma[j]
		}
	}
	if np == 0 {
		// φ is the nominal family: no feature belongs to it.
		return tuned
	}
	// w ← y_φ / Σ y.
	var ysum float64
	for _, y := range coarse {
		ysum += y
	}
	w := coarse[fam] / ysum
	if s == 0 || s == 1 {
		return tuned // extreme cases: keep γ̂ unchanged
	}
	for j := range tuned {
		if layout.FamilyOf(j) == fam {
			tuned[j] = gamma[j] * w / s
		} else {
			tuned[j] = gamma[j] * (1 - w) / (1 - s)
		}
	}
	return tuned
}

// auxScoresInto evaluates the auxiliary forest on the sample and
// re-indexes its full-layout scores onto the inference layout, writing
// through caller-provided buffers: fullVec (full-layout projection
// scratch), scores (full-layout cause scores) and out (per-feature scores
// on the inference layout, returned).
// Landmarks absent from the inference layout are zero-filled, mirroring
// the extensible-forest missing-value policy.
func (m *Model) auxScoresInto(features []float64, layout probe.Layout, fullVec, scores, out []float64) []float64 {
	full := m.FullLayout
	for i := range fullVec {
		fullVec[i] = 0
	}
	for pos, region := range full.Landmarks {
		if lp := layout.LandmarkPos(region); lp >= 0 {
			for mt := 0; mt < int(probe.NumMetrics); mt++ {
				fullVec[full.FeatureIndex(pos, probe.Metric(mt))] = features[layout.FeatureIndex(lp, probe.Metric(mt))]
			}
		}
	}
	for li := 0; li < probe.NumLocal; li++ {
		fullVec[full.LocalIndex(li)] = features[layout.LocalIndex(li)]
	}
	m.Aux.ScoresInto(fullVec, scores)

	for j := range out {
		if layout.IsLocal(j) {
			out[j] = scores[full.LocalIndex(j-layout.NumLandmarks()*int(probe.NumMetrics))]
			continue
		}
		region := layout.Landmarks[j/int(probe.NumMetrics)]
		metric := probe.Metric(j % int(probe.NumMetrics))
		out[j] = scores[full.FeatureIndex(full.LandmarkPos(region), metric)]
	}
	return out
}

// CoarsePredict returns only the coarse family distribution for a raw
// sample (step ④), without running attention or the ensemble. Like
// Diagnose it runs on a pooled session and is safe for concurrent use.
func (m *Model) CoarsePredict(features []float64, layout probe.Layout) []float64 {
	s := m.acquire()
	defer m.sessions.Put(s)
	s.ws.Reset()
	x := s.ws.Matrix(1, layout.NumFeatures())
	m.Norm.ApplyInto(features, layout, x.Row(0))
	return slices.Clone(s.net.Predict(x).Row(0))
}
