package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRankOf(t *testing.T) {
	scores := []float64{0.1, 0.5, 0.3, 0.05}
	if RankOf(scores, 1) != 1 {
		t.Fatal("best score should rank 1")
	}
	if RankOf(scores, 2) != 2 {
		t.Fatal("second best should rank 2")
	}
	if RankOf(scores, 3) != 4 {
		t.Fatal("worst should rank 4")
	}
}

func TestRankOfTiesShareBestRank(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.1}
	if RankOf(scores, 0) != 1 || RankOf(scores, 1) != 1 {
		t.Fatal("tied leaders must both rank 1")
	}
}

func TestRankOfPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	RankOf([]float64{1}, 3)
}

func TestRecallAtK(t *testing.T) {
	ranks := []int{1, 3, 2, 10, 1}
	if got := RecallAtK(ranks, 1); got != 0.4 {
		t.Fatalf("Recall@1 = %v", got)
	}
	if got := RecallAtK(ranks, 3); got != 0.8 {
		t.Fatalf("Recall@3 = %v", got)
	}
	if got := RecallAtK(ranks, 10); got != 1 {
		t.Fatalf("Recall@10 = %v", got)
	}
	if RecallAtK(nil, 5) != 0 {
		t.Fatal("empty ranks")
	}
}

func TestRecallCurveMonotone(t *testing.T) {
	ranks := []int{1, 2, 5, 4, 3, 2, 7}
	curve := RecallCurve(ranks, 7)
	if len(curve) != 7 {
		t.Fatal("curve length")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("recall curve must be nondecreasing")
		}
	}
	if curve[6] != 1 {
		t.Fatal("curve should saturate")
	}
}

func TestConfusionAccuracyAndF1(t *testing.T) {
	c := NewConfusion(3)
	// class 0: 2 correct, 1 mistaken as class 1
	c.Add(0, 0)
	c.Add(0, 0)
	c.Add(0, 1)
	// class 1: 1 correct
	c.Add(1, 1)
	// class 2: 1 mistaken as 0
	c.Add(2, 0)
	if got := c.Accuracy(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("accuracy = %v", got)
	}
	// class 0: precision 2/3, recall 2/3, F1 2/3
	if got := c.F1(0); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("F1(0) = %v", got)
	}
	// class 1: precision 1/2, recall 1, F1 = 2/3
	if got := c.F1(1); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("F1(1) = %v", got)
	}
	// class 2: never predicted → F1 0
	if c.F1(2) != 0 {
		t.Fatal("F1(2) should be 0")
	}
	if c.Support(0) != 3 || c.Support(2) != 1 {
		t.Fatal("support wrong")
	}
	if c.N != 5 {
		t.Fatal("N wrong")
	}
}

func TestAccuracyStdErr(t *testing.T) {
	c := NewConfusion(2)
	for i := 0; i < 50; i++ {
		c.Add(0, 0)
		c.Add(1, 0)
	}
	se := c.AccuracyStdErr()
	want := math.Sqrt(0.5 * 0.5 / 100)
	if math.Abs(se-want) > 1e-12 {
		t.Fatalf("stderr = %v, want %v", se, want)
	}
	if NewConfusion(2).AccuracyStdErr() != 0 {
		t.Fatal("empty stderr")
	}
}

func TestBootstrapRecallCI(t *testing.T) {
	// Mixed ranks: true recall@1 = 0.5; CI must bracket it and be
	// deterministic per seed.
	ranks := make([]int, 200)
	for i := range ranks {
		if i%2 == 0 {
			ranks[i] = 1
		} else {
			ranks[i] = 9
		}
	}
	lo, hi := BootstrapRecallCI(ranks, 1, 500, 0.05, 7)
	if !(lo < 0.5 && 0.5 < hi) {
		t.Fatalf("CI [%v, %v] misses the point estimate", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("CI [%v, %v] implausibly wide for n=200", lo, hi)
	}
	lo2, hi2 := BootstrapRecallCI(ranks, 1, 500, 0.05, 7)
	if lo != lo2 || hi != hi2 {
		t.Fatal("bootstrap not deterministic per seed")
	}
	// Degenerate input.
	if lo, hi := BootstrapRecallCI(nil, 1, 10, 0.05, 1); lo != 0 || hi != 0 {
		t.Fatal("empty CI")
	}
	// Perfect ranks: CI collapses to [1, 1].
	lo, hi = BootstrapRecallCI([]int{1, 1, 1, 1}, 1, 100, 0.05, 2)
	if lo != 1 || hi != 1 {
		t.Fatalf("perfect CI [%v, %v]", lo, hi)
	}
}

func TestMRR(t *testing.T) {
	if MRR(nil) != 0 {
		t.Fatal("empty MRR")
	}
	got := MRR([]int{1, 2, 4})
	want := (1 + 0.5 + 0.25) / 3
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MRR = %v, want %v", got, want)
	}
	if MRR([]int{1, 1}) != 1 {
		t.Fatal("perfect MRR")
	}
}

// Property: Recall@K equals 1 when K ≥ max rank, and RankOf is within
// [1, len].
func TestRankBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, target := range []int{0, len(raw) - 1} {
			_ = i
			r := RankOf(raw, target)
			if r < 1 || r > len(raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
