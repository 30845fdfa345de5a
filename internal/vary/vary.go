// Package vary models inter-tier process variation for the monolithic-3D
// stack and estimates its timing-yield and energy consequences by Monte
// Carlo. The physical picture follows Musavvir et al. (inter-tier
// process variation in monolithic 3D): the bottom FEOL Si CMOS tier sees
// ordinary drive-strength spread, while the BEOL tiers fabricated on top
// — CNFET access transistors and the RRAM/ILV stack — carry both a
// systematic degradation (CNFET Vt shift from low-temperature processing)
// and a wider random spread (CNFET drive σ, ILV resistance spread), with
// a tunable tier-to-tier correlation from shared lithography and thermal
// history.
//
// Each Monte-Carlo sample is a Corner: one multiplicative delay scale per
// tech.Tier, pushed through the reusable sta.Timer via SetTierDelayScale,
// plus the matching analytic-model perturbations for EDP bands. Corners
// are drawn by a seeded, sample-indexed generator — Corner(i) is a pure
// function of (Variation, seed, i) — so a fan-out over the worker pool
// (exec.MapWith) returns deep-equal results at any pool width, the same
// determinism contract internal/dse relies on.
package vary

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"m3d/internal/errs"
	"m3d/internal/tech"
)

// minScale floors every per-tier delay scale: no corner, however many
// sigma out, can make a tier infinitely fast (or invert delay signs).
const minScale = 0.05

// Corner is one sampled process corner: the per-tier multiplicative
// delay scales, indexed by tech.Tier. A scale of exactly 1.0 in every
// entry is bit-for-bit nominal timing (the σ=0 corner).
type Corner struct {
	// Index is the sample index the corner was drawn at.
	Index int
	// TierScale[t] multiplies every delay arc driven from tier t.
	TierScale [tech.NumTiers]float64
}

// Sampler draws correlated process corners from a seeded, sample-indexed
// RNG. It is stateless between draws: Corner(i) depends only on the
// variation parameters, the seed, and i, never on which corners were
// drawn before — the property that makes Monte-Carlo fan-outs
// width-deterministic.
//
// Each draw reads a math/rand stream seeded from (seed, i). The stream
// comes from cornerSource, which matches rand.NewSource bit for bit but
// seeds in O(1), so a cold draw costs four normal deviates (~150 ns
// in all), not rand.NewSource's 1,841-step seeding loop. Because
// each draw is a pure function of (Variation, seed, i), corners may
// also be cached: Prime(n) precomputes the first n corners once, after
// which Corner(i) is a slice read.
type Sampler struct {
	v    tech.Variation
	seed uint64

	// primed is the append-only corner cache: an atomically published
	// prefix of the corner stream. Readers load the current slice
	// header; Prime extends under mu and publishes a longer prefix.
	// Cached and freshly drawn corners are bit-identical by
	// construction, so cache warmth never changes a result.
	mu     sync.Mutex
	primed atomic.Pointer[[]Corner]
}

// NewSampler validates the variation parameters and builds a sampler
// for the given seed. Invalid parameters match errs.ErrBadSpec.
func NewSampler(v tech.Variation, seed int64) (*Sampler, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("vary: %v: %w", err, errs.ErrBadSpec)
	}
	return &Sampler{v: v, seed: uint64(seed)}, nil
}

// Variation returns the sampler's variation parameters.
func (s *Sampler) Variation() tech.Variation { return s.v }

// mix is the splitmix64 finalizer: a high-quality 64-bit hash used to
// decorrelate per-sample RNG streams derived from (seed, index).
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clampScale floors a sampled delay scale at minScale.
func clampScale(s float64) float64 {
	if s < minScale {
		return minScale
	}
	return s
}

// Corner draws the i-th process corner. The draw order is fixed — one
// shared factor z0, then one idiosyncratic deviate per tier (Si, RRAM,
// CNFET) — so the sequence of deviates consumed never depends on the
// σ values; two samplers at different σ see identical z draws for the
// same (seed, i), which is what makes yield monotone comparisons across
// a σ ladder exact rather than statistical.
//
// Each tier's deviate is z_t = ρ·z0 + √(1−ρ²)·ε_t. At ρ=1 the √ term is
// exactly zero, so every tier sees the identical z0 (the single-corner
// limit); at σ=0 every scale is exactly 1.0 (0·z == 0 in IEEE-754), so
// the corner collapses bit-for-bit onto nominal timing.
func (s *Sampler) Corner(i int) Corner {
	if c := s.primed.Load(); c != nil && i >= 0 && i < len(*c) {
		return (*c)[i]
	}
	src := new(cornerSource)
	src.Seed(s.cornerSeed(i))
	return s.drawCorner(rand.New(src), i)
}

// cornerSeed derives the i-th draw's RNG seed from the sampler seed.
func (s *Sampler) cornerSeed(i int) int64 {
	return int64(mix(s.seed ^ mix(uint64(i))))
}

// drawCorner consumes the fixed four-deviate sequence from rng (already
// seeded with cornerSeed(i)) and builds the corner. rng reads the
// stream of rand.NewSource(cornerSeed(i)), whether through a fresh
// source or a reused *rand.Rand reseeded via Seed, which is what lets
// Prime batch draws without an allocation per corner — or a bit of
// divergence.
func (s *Sampler) drawCorner(rng *rand.Rand, i int) Corner {
	z0 := rng.NormFloat64()
	rho := s.v.TierCorr
	idio := math.Sqrt(1 - rho*rho)
	zSi := rho*z0 + idio*rng.NormFloat64()
	zRRAM := rho*z0 + idio*rng.NormFloat64()
	zCN := rho*z0 + idio*rng.NormFloat64()

	var c Corner
	c.Index = i
	c.TierScale[tech.TierSiCMOS] = clampScale(1 + s.v.SiDriveSigma*zSi)
	c.TierScale[tech.TierRRAM] = clampScale(1 + s.v.ILVRSpread*zRRAM)
	c.TierScale[tech.TierCNFET] = clampScale(1 + s.v.CNFETVtShift + s.v.CNFETDriveSigma*zCN)
	return c
}

// Prime extends the corner cache to cover indices [0, n). It is safe to
// call concurrently with Corner readers (the cache is published
// atomically and only ever grows) and is idempotent: re-priming a
// covered prefix is a single atomic load. Callers that know their
// sample count — the yield engine, serve's streaming handler, the DSE's
// per-point EDP bands — prime once and turn every later draw into a
// slice read.
func (s *Sampler) Prime(n int) {
	if n > MaxSamples {
		n = MaxSamples
	}
	if n <= 0 {
		return
	}
	if c := s.primed.Load(); c != nil && len(*c) >= n {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var have []Corner
	if c := s.primed.Load(); c != nil {
		have = *c
	}
	if len(have) >= n {
		return
	}
	out := have
	if cap(out) < n {
		// Doubling growth keeps a batch-at-a-time caller (serve streams
		// corners in request-sized windows) at amortized O(n) copying.
		newCap := n
		if newCap < 2*cap(out) {
			newCap = 2 * cap(out)
		}
		out = make([]Corner, len(have), newCap)
		copy(out, have)
	}
	rng := rand.New(new(cornerSource))
	for i := len(out); i < n; i++ {
		rng.Seed(s.cornerSeed(i))
		out = append(out, s.drawCorner(rng, i))
	}
	s.primed.Store(&out)
}

// Quantiles summarizes a Monte-Carlo sample set by its 5th, 50th and
// 95th percentiles — the band the experiment tables report.
type Quantiles struct {
	P5  float64 `json:"p5"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
}

// QuantilesOf computes nearest-rank p5/p50/p95 over xs (which it does
// not modify). By construction P5 ≤ P50 ≤ P95. Empty input yields zeros.
func QuantilesOf(xs []float64) Quantiles {
	if len(xs) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Quantiles{
		P5:  nearestRank(sorted, 0.05),
		P50: nearestRank(sorted, 0.50),
		P95: nearestRank(sorted, 0.95),
	}
}

// nearestRank returns the nearest-rank p-quantile of an ascending slice.
func nearestRank(sorted []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
