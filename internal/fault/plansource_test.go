package fault

import (
	"math"
	"math/rand"
	"testing"
)

// oracleDraws crosses the handover from lazily computed words to the
// fully seeded source (after draw rngTap) with room to spare.
const oracleDraws = 1500

// oracleSeeds returns the seed-reduction edge cases followed by n
// scrambled seeds spread over the whole int64 range.
func oracleSeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, lehmerMod - 1, lehmerMod, lehmerMod + 1,
		-lehmerMod, -lehmerMod - 1, 2 * lehmerMod, 1 << 31, 1 << 40, -(1 << 40),
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	z := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		z += 0x9e3779b97f4a7c15
		x := (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		seeds = append(seeds, int64(x^(x>>31))>>(i%64))
	}
	return seeds
}

// checkAgainstMathRand draws from planSource and math/rand.NewSource
// side by side.
func checkAgainstMathRand(t *testing.T, seed int64, draws int) {
	t.Helper()
	want := rand.NewSource(seed)
	got := newPlanSource(seed)
	for k := 1; k <= draws; k++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, k, g, w)
		}
	}
}

func TestPlanSourceMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds(3000) {
		checkAgainstMathRand(t, seed, oracleDraws)
	}
}

// TestPlanSourceReseed checks that Seed restarts the stream from the
// lazy state, also after the source has handed over to math/rand.
func TestPlanSourceReseed(t *testing.T) {
	s := newPlanSource(5)
	for _, draws := range []int{3, rngTap, rngTap + 1, 900} {
		for k := 0; k < draws; k++ {
			s.Int63()
		}
		s.Seed(-77)
		want := rand.NewSource(-77)
		for k := 1; k <= oracleDraws; k++ {
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("reseed after %d draws: draw %d = %d, want %d", draws, k, g, w)
			}
		}
		s.Seed(5)
	}
}

// FuzzPlanSource compares planSource with math/rand.NewSource for an
// arbitrary seed and stream length.
func FuzzPlanSource(f *testing.F) {
	f.Add(int64(0), uint16(7))
	f.Add(int64(-1), uint16(rngTap))
	f.Add(int64(lehmerMod), uint16(rngTap+1))
	f.Add(int64(math.MinInt64), uint16(oracleDraws))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkAgainstMathRand(t, seed, int(draws)%(2*oracleDraws))
	})
}
