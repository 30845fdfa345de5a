package vary

import (
	"math"
	"math/rand"
	"testing"

	"m3d/internal/tech"
)

// sourceDraws exceeds the rngTap fast-path window (draws 0..272 read
// every register word once) and runs well into the fallback source.
const sourceDraws = 700

// assertSourceMatches draws sourceDraws numbers from cornerSource and
// from math/rand's own source at seed and requires every one to match.
// src is reused across calls, as Prime reuses it.
func assertSourceMatches(t *testing.T, src *cornerSource, seed int64) {
	t.Helper()
	src.Seed(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for j := 0; j < sourceDraws; j++ {
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d draw %d: got %#x, math/rand %#x", seed, j, got, want)
		}
	}
}

// TestCornerSourceMatchesMathRand checks cornerSource against math/rand
// as the independent oracle: the raw stream at edge seeds and at the
// sampler's own mix-derived corner seeds, the Int63 path NormFloat64
// reads, and whole corners, cold and primed, against draws through
// rand.NewSource.
func TestCornerSourceMatchesMathRand(t *testing.T) {
	src := new(cornerSource)
	edges := []int64{
		0, 1, -1, 89482311, -89482311,
		int32max, -int32max, 2 * int32max, -2 * int32max, 7 * int32max,
		int32max - 1, int32max + 1, -int32max - 1, -int32max + 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
		(math.MaxInt64 / int32max) * int32max, (math.MinInt64 / int32max) * int32max,
	}
	for _, seed := range edges {
		assertSourceMatches(t, src, seed)
	}
	s, err := NewSampler(tech.DefaultVariation(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		assertSourceMatches(t, src, s.cornerSeed(i))
	}

	// Int63 is what rand.Rand's NormFloat64 and Float64 read.
	src.Seed(42)
	ref := rand.NewSource(42)
	for j := 0; j < sourceDraws; j++ {
		if got, want := src.Int63(), ref.Int63(); got != want {
			t.Fatalf("Int63 draw %d: got %d, math/rand %d", j, got, want)
		}
	}

	for i := 0; i < 4096; i++ {
		want := s.drawCorner(rand.New(rand.NewSource(s.cornerSeed(i))), i)
		if got := s.Corner(i); got != want {
			t.Fatalf("corner %d: got %+v, math/rand draw %+v", i, got, want)
		}
	}
	s.Prime(4096)
	for i := 0; i < 4096; i++ {
		want := s.drawCorner(rand.New(rand.NewSource(s.cornerSeed(i))), i)
		if got := s.Corner(i); got != want {
			t.Fatalf("primed corner %d: got %+v, math/rand draw %+v", i, got, want)
		}
	}
}
