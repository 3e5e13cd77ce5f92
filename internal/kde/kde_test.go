package kde

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]float64, 200)
	for i := range pts {
		pts[i] = rng.NormFloat64()
	}
	k := New(pts, 0)
	// Trapezoidal integration over a wide support.
	var integral float64
	const dx = 0.01
	for x := -8.0; x <= 8.0; x += dx {
		integral += k.Density(x) * dx
	}
	if math.Abs(integral-1) > 0.02 {
		t.Fatalf("KDE integrates to %v", integral)
	}
}

func TestDensityPeaksNearData(t *testing.T) {
	k := New([]float64{0, 0.1, -0.1, 0.05}, 0)
	if k.Density(0) <= k.Density(5) {
		t.Fatal("density should peak near the data")
	}
}

func TestSilvermanPositiveOnConstantSample(t *testing.T) {
	if h := Silverman([]float64{3, 3, 3}); h <= 0 {
		t.Fatalf("Silverman = %v on constant sample", h)
	}
	if h := Silverman([]float64{0, 0}); h <= 0 {
		t.Fatalf("Silverman = %v on zero sample", h)
	}
}

func TestNewEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(nil, 0)
}

func TestMergeFlattens(t *testing.T) {
	a := New([]float64{-5, -5.1, -4.9}, 0)
	b := New([]float64{5, 5.1, 4.9}, 0)
	m := Merge(a, b)
	if m.Len() != 6 {
		t.Fatalf("merged len %d", m.Len())
	}
	// The merged KDE covers both modes.
	if m.Density(-5) < b.Density(-5) {
		t.Fatal("merged KDE lost the left mode")
	}
	if m.Density(5) < a.Density(5) {
		t.Fatal("merged KDE lost the right mode")
	}
	// Merge skips nils.
	m2 := Merge(nil, a, nil)
	if m2.Len() != 3 {
		t.Fatal("Merge should skip nils")
	}
}

func TestMergeAllNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Merge(nil, nil)
}

func TestSubsamplePreservesRangeAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := make([]float64, 1000)
	for i := range pts {
		pts[i] = rng.Float64() * 100
	}
	sub := Subsample(pts, 50)
	if len(sub) != 50 {
		t.Fatalf("len %d", len(sub))
	}
	min, max := pts[0], pts[0]
	for _, p := range pts {
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if sub[0] != min || sub[len(sub)-1] != max {
		t.Fatal("subsample must keep extremes")
	}
	// Small inputs pass through.
	small := []float64{3, 1}
	if got := Subsample(small, 10); len(got) != 2 {
		t.Fatal("small sample should pass through")
	}
	// The pass-through must still copy.
	got := Subsample(small, 10)
	got[0] = 99
	if small[0] == 99 {
		t.Fatal("Subsample must not alias its input")
	}
}

// Property: density is non-negative everywhere and symmetric for symmetric
// data.
func TestDensityNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]float64, 1+rng.Intn(30))
		for i := range pts {
			pts[i] = rng.NormFloat64() * 10
		}
		k := New(pts, 0)
		for i := 0; i < 20; i++ {
			if k.Density(rng.NormFloat64()*20) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNewCopiesInput(t *testing.T) {
	pts := []float64{1, 2, 3}
	k := New(pts, 0)
	pts[0] = 100
	if k.Density(100) > k.Density(2) {
		t.Fatal("KDE must copy its input points")
	}
}
