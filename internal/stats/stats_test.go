package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty slice stats should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Min(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {75, 3.25},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleElement(t *testing.T) {
	if Percentile([]float64{42}, 90) != 42 {
		t.Fatal("single-element percentile")
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 1
		o.Add(xs[i])
	}
	if !almost(o.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("Online mean %v vs %v", o.Mean(), Mean(xs))
	}
	if !almost(o.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("Online var %v vs %v", o.Variance(), Variance(xs))
	}
}

func TestOnlineMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var all, a, b Online
	var xs []float64
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64()
		xs = append(xs, x)
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() || !almost(a.Mean(), all.Mean(), 1e-9) || !almost(a.Variance(), all.Variance(), 1e-9) {
		t.Fatalf("Merge: got n=%d mean=%v var=%v", a.N(), a.Mean(), a.Variance())
	}
	// Merging into an empty accumulator copies.
	var empty Online
	empty.Merge(&all)
	if empty.N() != all.N() {
		t.Fatal("merge into empty failed")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Fatal("Clamp wrong")
	}
}

func TestSplitSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		s := SplitSeed(42, i)
		if seen[s] {
			t.Fatalf("duplicate child seed at stream %d", i)
		}
		seen[s] = true
	}
	if SplitSeed(42, 0) != SplitSeed(42, 0) {
		t.Fatal("SplitSeed must be deterministic")
	}
	if SplitSeed(42, 0) == SplitSeed(43, 0) {
		t.Fatal("different parents should give different children")
	}
}

func TestNewRandReproducible(t *testing.T) {
	a := NewRand(1, 2)
	b := NewRand(1, 2)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("NewRand not reproducible")
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := PercentileSorted(sorted, p)
			if v < prev || v < sorted[0]-1e-12 || v > sorted[n-1]+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Online.Merge is order-insensitive for the mean.
func TestOnlineMergeCommutativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a1, b1, a2, b2 Online
		for i := 0; i < 20+rng.Intn(50); i++ {
			x := rng.NormFloat64()
			a1.Add(x)
			a2.Add(x)
		}
		for i := 0; i < 1+rng.Intn(50); i++ {
			x := rng.NormFloat64() * 2
			b1.Add(x)
			b2.Add(x)
		}
		a1.Merge(&b1) // a then b
		b2.Merge(&a2) // b then a
		return almost(a1.Mean(), b2.Mean(), 1e-9) && almost(a1.Variance(), b2.Variance(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
