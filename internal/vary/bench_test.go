package vary_test

import (
	"testing"

	"m3d/internal/exec"
	"m3d/internal/tech"
	"m3d/internal/vary"
)

// BenchmarkSamplerPrime65536 is the benchdiff-tracked cost of drawing
// corners: one fresh sampler primed with 65,536 corners (the /v1/yield
// sample cap and one perfbench yield operation) per op, serially. It
// gates the per-corner seeding cost that once dominated a yield run.
func BenchmarkSamplerPrime65536(b *testing.B) {
	v := tech.DefaultVariation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := vary.NewSampler(v, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		s.Prime(65536)
	}
}

// BenchmarkMonteCarloSTA is the benchdiff-tracked cost of Monte-Carlo
// timing: one 32-corner window on a 16-stage chain, serial so the
// number is scheduling-independent. Since the corner-batched kernel the
// window is ONE levelization walk into caller-owned storage; the warm-up
// call outside the timed region fills the corner cache and the scratch
// free list, so the loop pins the zero-steady-state-alloc contract
// (allocs/op must stay 0 — benchdiff fails on any alloc regression).
func BenchmarkMonteCarloSTA(b *testing.B) {
	p, nl := chainNetlist(b, 16)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 1)
	if err != nil {
		b.Fatal(err)
	}
	st := exec.Resolve(exec.WithWorkers(1))
	dst := make([]float64, 32)
	if err := e.CriticalPathsInto(st, 0, 32, dst); err != nil { // warm cache + scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.CriticalPathsInto(st, 0, 32, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloYield4096 is the profile target behind
// `make profile-yield`: a 4096-corner yield window, serial. The engine
// is built once, so only the first op primes corners (~0.6 ms); over
// the Makefile's 2 s run the CPU profile is the batched kernel's steady
// state. Not benchdiff-tracked (it is a profiling vehicle; the
// 32-corner benchmark above is the regression gate).
func BenchmarkMonteCarloYield4096(b *testing.B) {
	p, nl := chainNetlist(b, 16)
	e, err := vary.NewEngine(p, nl, nil, tech.DefaultVariation(), 1)
	if err != nil {
		b.Fatal(err)
	}
	st := exec.Resolve(exec.WithWorkers(1))
	dst := make([]float64, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.CriticalPathsInto(st, 0, 4096, dst); err != nil {
			b.Fatal(err)
		}
	}
}
