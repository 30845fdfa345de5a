package vary

import "math/rand"

// math/rand's additive lagged-Fibonacci generator: a 607-word feedback
// register whose draw j (0-based, counted from Seed) returns
// vec[feed] + vec[tap] and stores the sum back at vec[feed].
const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// minstdPow[n] is 48271ⁿ mod (2³¹−1): n MINSTD steps from any state x
// land on x·minstdPow[n] mod (2³¹−1). rngSource.Seed builds register
// word i from steps 21+3i, 22+3i and 23+3i, so the last word needs
// step 3·606+23 = 1841.
var minstdPow = func() (p [3*rngLen + 21]uint64) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * 48271 % int32max
	}
	return p
}()

// cornerSource is a rand.Source that yields exactly the stream of
// rand.NewSource(seed), with an O(1) Seed.
//
// rand.NewSource fills all 607 register words on Seed, running 1,841
// MINSTD steps, and a corner then draws only about four numbers. Draw
// j < rngTap reads vec[333−j] and vec[606−j], and no earlier draw has
// written either word (draw j writes vec[333−j] only). So for those
// draws cornerSource computes the two seeded words on demand from
// minstdPow and rngCooked. Draw rngTap is the first to read a word an
// earlier draw wrote; from there on cornerSource seeds a real
// math/rand source, skips the draws already returned and delegates.
// The normal deviates of a corner practically never get that far.
type cornerSource struct {
	seed int64         // as passed to Seed, for the fallback source
	x0   uint64        // the MINSTD start state rngSource.Seed derives from seed
	n    int           // draws returned since Seed
	fb   rand.Source64 // the fallback source from draw rngTap on; nil before
}

// Seed restarts the stream at seed, normalizing it the way
// rngSource.Seed does.
func (s *cornerSource) Seed(seed int64) {
	s.seed, s.n, s.fb = seed, 0, nil
	x := seed % int32max
	if x < 0 {
		x += int32max
	}
	if x == 0 {
		x = 89482311
	}
	s.x0 = uint64(x)
}

// word returns register word i as rngSource.Seed leaves it.
func (s *cornerSource) word(i int) int64 {
	a := int64(s.x0 * minstdPow[21+3*i] % int32max)
	b := int64(s.x0 * minstdPow[22+3*i] % int32max)
	c := int64(s.x0 * minstdPow[23+3*i] % int32max)
	return a<<40 ^ b<<20 ^ c ^ rngCooked[i]
}

// Uint64 returns the next number of the rand.NewSource(seed) stream.
func (s *cornerSource) Uint64() uint64 {
	j := s.n
	s.n++
	if j < rngTap {
		return uint64(s.word(rngLen-rngTap-1-j) + s.word(rngLen-1-j))
	}
	if s.fb == nil {
		s.fb = rand.NewSource(s.seed).(rand.Source64)
		for k := 0; k < j; k++ {
			s.fb.Uint64()
		}
	}
	return s.fb.Uint64()
}

// Int63 returns the next number of the stream with its top bit cleared,
// as rngSource.Int63 does.
func (s *cornerSource) Int63() int64 { return int64(s.Uint64() & rngMask) }
