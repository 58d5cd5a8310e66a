package sim

import "math/rand"

// RNG is a deterministic random stream. Components never share a stream:
// each derives its own via Split, so adding a consumer of randomness in one
// module cannot perturb the draws seen by another (runs stay comparable
// across code changes).
//
// Seeding is lazy: math/rand source initialization costs tens of
// microseconds, which dominates network construction in campaign runs that
// never draw (no stochastic faults, no jittered traffic). The draw sequence
// for a given seed is unchanged.
type RNG struct {
	r    *rand.Rand
	seed int64
}

// NewRNG returns a stream seeded with the given value.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed}
}

// src seeds the underlying source on first use.
func (g *RNG) src() *rand.Rand {
	if g.r == nil {
		g.r = rand.New(rand.NewSource(g.seed))
	}
	return g.r
}

// Seed returns the seed this stream was created with.
func (g *RNG) Seed() int64 { return g.seed }

// Split derives an independent child stream, named so derivation is stable
// across runs (e.g. Split("bus"), Split("node/3")). The child seed is the
// parent seed XOR the 64-bit FNV-1a hash of the name, computed inline so
// that the RNG is the only allocation.
func (g *RNG) Split(name string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211 // FNV-1a prime
	}
	child := g.seed ^ int64(h)
	// Avoid the degenerate all-zero seed.
	if child == 0 {
		child = int64(h) | 1
	}
	return NewRNG(child)
}

// Float64 returns a uniform draw in [0,1).
func (g *RNG) Float64() float64 { return g.src().Float64() }

// Intn returns a uniform draw in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.src().Intn(n) }

// Int63 returns a non-negative uniform 63-bit draw.
func (g *RNG) Int63() int64 { return g.src().Int63() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.src().Float64() < p
}

// Duration returns a uniform draw in [0, d).
func (g *RNG) Duration(d Duration) Duration {
	if d <= 0 {
		return 0
	}
	return Duration(g.src().Int63n(int64(d)))
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.src().Perm(n) }

// Pick returns a uniformly chosen element index of a non-empty length.
func (g *RNG) Pick(n int) int {
	if n <= 0 {
		panic("sim: Pick from empty range")
	}
	return g.src().Intn(n)
}

// Subset returns a uniformly random subset of [0,n) of the given size.
func (g *RNG) Subset(n, size int) []int {
	if size < 0 || size > n {
		panic("sim: Subset size out of range")
	}
	perm := g.src().Perm(n)
	out := append([]int(nil), perm[:size]...)
	return out
}
