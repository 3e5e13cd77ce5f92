package nn

import (
	"fmt"
	"math"

	"diagnet/internal/mat"
)

// SoftmaxCrossEntropy fuses a softmax activation with a categorical
// cross-entropy loss, the standard numerically stable formulation.
type SoftmaxCrossEntropy struct{}

// softmaxInto writes the row-wise softmax of logits into p and returns p.
func softmaxInto(p, logits *mat.Matrix) *mat.Matrix {
	for i := 0; i < logits.Rows; i++ {
		softmaxRow(logits.Row(i), p.Row(i))
	}
	return p
}

func softmaxRow(z, out []float64) {
	max := z[0]
	for _, v := range z[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for j, v := range z {
		e := math.Exp(v - max)
		out[j] = e
		sum += e
	}
	for j := range out {
		out[j] /= sum
	}
}

// Loss returns the mean cross-entropy of logits against integer class
// labels, plus the gradient with respect to the logits (softmax − onehot,
// scaled by 1/n).
func (l SoftmaxCrossEntropy) Loss(logits *mat.Matrix, labels []int) (float64, *mat.Matrix) {
	return l.WeightedLoss(logits, labels, nil)
}

// WeightedLoss is Loss with optional per-class weights (class-balanced
// cross-entropy). nil weights mean uniform. DiagNet uses balanced weights
// because nominal samples vastly outnumber each fault family (§IV-A-e
// injects faults uniformly to avoid bias; the weighting neutralizes the
// remaining nominal/faulty imbalance).
func (SoftmaxCrossEntropy) WeightedLoss(logits *mat.Matrix, labels []int, weights []float64) (float64, *mat.Matrix) {
	if logits.Rows != len(labels) {
		panic(fmt.Sprintf("nn: loss: %d rows vs %d labels", logits.Rows, len(labels)))
	}
	if weights != nil && len(weights) != logits.Cols {
		panic(fmt.Sprintf("nn: loss: %d weights for %d classes", len(weights), logits.Cols))
	}
	grad := mat.New(logits.Rows, logits.Cols)
	var total, wsum float64
	for i := 0; i < logits.Rows; i++ {
		prow := grad.Row(i)
		softmaxRow(logits.Row(i), prow)
		y := labels[i]
		if y < 0 || y >= logits.Cols {
			panic(fmt.Sprintf("nn: loss: label %d out of range [0,%d)", y, logits.Cols))
		}
		w := 1.0
		if weights != nil {
			w = weights[y]
		}
		wsum += w
		total += -w * math.Log(math.Max(prow[y], 1e-15))
		prow[y] -= 1
		for j := range prow {
			prow[j] *= w
		}
	}
	if wsum == 0 {
		wsum = 1
	}
	grad.Scale(1 / wsum)
	return total / wsum, grad
}

// idealLossSeed writes into g the gradient of the "ideal label" losses
// L*_i = −log softmax(logits[i])[targets[i]] with respect to the logits,
// given probs = softmax(logits): row i is probs[i] − onehot(targets[i]),
// the backward seed of the attention mechanism (paper §III-E). No 1/batch
// scaling is applied — the loss is a per-sample sum, so each input-gradient
// row is exactly what a one-row pass would produce.
func idealLossSeed(g, probs *mat.Matrix, targets []int) *mat.Matrix {
	if probs.Rows != len(targets) {
		panic(fmt.Sprintf("nn: idealLossSeed: %d rows vs %d targets", probs.Rows, len(targets)))
	}
	copy(g.Data, probs.Data)
	for i, y := range targets {
		if y < 0 || y >= probs.Cols {
			panic(fmt.Sprintf("nn: idealLossSeed: target %d out of range [0,%d)", y, probs.Cols))
		}
		g.Row(i)[y] -= 1
	}
	return g
}
