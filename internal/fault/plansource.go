package fault

import "math/rand"

// planSource is the fault-plan generator's rand.Source. It returns
// exactly the stream of math/rand.NewSource(seed) but computes only the
// state words it reads.
//
// Seeding an rngSource runs 1,841 steps of the Lehmer generator
// x_{k+1} = 48271·x_k mod (2^31−1) to fill 607 state words, while a
// campaign plan (one fault, 6–7 draws) reads about 14 of them. Here
// x_k = x_0·48271^k comes from a power table, so state word i is
//
//	word(i) = x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i]
//
// on demand, and draw k (1-based) is word(334−k) + word(607−k) masked
// to 63 bits: the additive lagged-Fibonacci step with its feed and tap
// pointers walking down from 334 and 607. Draw k overwrites word
// 334−k, which the tap pointer reaches again only at draw 274, so the
// first 273 draws read nothing but freshly seeded words and are exact.
// From draw 274 on, the source seeds a real math/rand source, skips the
// draws already made and continues from it — the same stream, at the
// old cost, for the rare plan with dozens of faults.
type planSource struct {
	x0    uint64      // reduced seed: the Lehmer generator's x_0
	draws int         // values returned so far
	full  rand.Source // the fully seeded source, once draws > rngTap
}

const (
	rngLen    = 607 // state words
	rngTap    = 273 // tap distance; also the number of exact lazy draws
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
)

// lehmerPow[k] = 48271^k mod (2^31−1) for every k seeding touches:
// 20 warm-up steps plus 3 per state word.
var lehmerPow [21 + 3*rngLen]uint64

func init() {
	lehmerPow[0] = 1
	for k := 1; k < len(lehmerPow); k++ {
		lehmerPow[k] = lehmerPow[k-1] * lehmerMul % lehmerMod
	}
}

func newPlanSource(seed int64) *planSource {
	s := &planSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to the stream of math/rand.NewSource(seed),
// reducing the seed exactly as rngSource.Seed does.
func (s *planSource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = planSource{x0: uint64(seed)}
}

// lehmer returns x_k.
func (s *planSource) lehmer(k int) int64 {
	return int64(s.x0 * lehmerPow[k] % lehmerMod)
}

// word computes state word i of the freshly seeded generator.
func (s *planSource) word(i int) int64 {
	k := 21 + 3*i
	return s.lehmer(k)<<40 ^ s.lehmer(k+1)<<20 ^ s.lehmer(k+2) ^ rngCooked[i]
}

func (s *planSource) Int63() int64 {
	if s.full == nil {
		if s.draws < rngTap {
			s.draws++
			return (s.word(rngLen-rngTap-s.draws) + s.word(rngLen-s.draws)) & (1<<63 - 1)
		}
		// x0 is already reduced, so it seeds the identical stream.
		s.full = rand.NewSource(int64(s.x0))
		for i := 0; i < s.draws; i++ {
			s.full.Int63()
		}
	}
	return s.full.Int63()
}
