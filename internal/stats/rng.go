package stats

import (
	"math/rand"
	"sync"
)

// SplitSeed derives a child seed from a parent seed and a stream index
// using the SplitMix64 finalizer. Parallel shards seeded with
// SplitSeed(root, shard) are decorrelated yet fully reproducible, so a
// computation's result never depends on goroutine scheduling.
func SplitSeed(seed int64, stream int64) int64 {
	z := uint64(seed) + uint64(stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// NewRand returns a rand.Rand seeded with SplitSeed(seed, stream).
func NewRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(SplitSeed(seed, stream)))
}

// LockedRand is a seedable random source safe for concurrent use: a
// mutex-guarded rand.Rand owned by exactly one component. Components that
// draw from the global math/rand source interleave their draw sequences —
// a second component's draws shift everyone else's, so a seeded run stops
// replaying. Giving each component its own LockedRand (seeded from the
// run's root seed via SplitSeed) keeps every component's sequence
// independent of scheduling and of what the rest of the process does.
type LockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

// NewLocked returns a LockedRand seeded directly with seed (stream 0 of
// that seed). Use NewLockedStream to decorrelate sibling components.
func NewLocked(seed int64) *LockedRand {
	return &LockedRand{r: rand.New(rand.NewSource(seed))}
}

// NewLockedStream returns a LockedRand seeded with SplitSeed(seed,
// stream): component number `stream` of a run rooted at `seed`.
func NewLockedStream(seed, stream int64) *LockedRand {
	return &LockedRand{r: NewRand(seed, stream)}
}

// Reseed restarts the sequence from the given seed.
func (l *LockedRand) Reseed(seed int64) {
	l.mu.Lock()
	l.r = rand.New(rand.NewSource(seed))
	l.mu.Unlock()
}

// Float64 draws from [0, 1).
func (l *LockedRand) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

// Intn draws from [0, n).
func (l *LockedRand) Intn(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Intn(n)
}

// Int63 draws a non-negative int64.
func (l *LockedRand) Int63() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Int63()
}

// Uint64 draws a uint64.
func (l *LockedRand) Uint64() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Uint64()
}

// NormFloat64 draws a standard normal variate.
func (l *LockedRand) NormFloat64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.NormFloat64()
}

// Perm returns a random permutation of [0, n).
func (l *LockedRand) Perm(n int) []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Perm(n)
}

// Shuffle pseudo-randomizes the order of n elements.
func (l *LockedRand) Shuffle(n int, swap func(i, j int)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.r.Shuffle(n, swap)
}
