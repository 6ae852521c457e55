package config

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// referenceSpaces memoizes the enumeration of each L1 type's space for
// referenceSample, so the equivalence test spends its time on shuffles.
var referenceSpaces [2][]Config

// referenceSample is Sample as it was before the configuration space was
// precomputed: it enumerates the whole L1-type space (here copied from a
// memoized enumeration) and shuffles the copy in place. Sample must return
// the same configurations and leave the caller's RNG in the same state.
func referenceSample(rng *rand.Rand, k, l1Type int) []Config {
	if referenceSpaces[l1Type] == nil {
		for i, n := 0, SpaceSize(); i < n; i++ {
			c := FromIndex(i)
			if c[L1Type] == l1Type {
				referenceSpaces[l1Type] = append(referenceSpaces[l1Type], c)
			}
		}
	}
	space := append([]Config(nil), referenceSpaces[l1Type]...)
	if k >= len(space) {
		return space
	}
	rng.Shuffle(len(space), func(i, j int) { space[i], space[j] = space[j], space[i] })
	return space[:k]
}

// TestSampleMatchesReference pins Sample to the enumerate-and-shuffle
// reference over seeded draws of both L1 types and every size class,
// including k at, just below and above the space size. The RNG must be
// left in the same state, so the caller's next draw matches too.
func TestSampleMatchesReference(t *testing.T) {
	ks := []int{1, 12, 100, 32399, 32400, 100000}
	cases := 0
	for seed := int64(1); seed <= 17; seed++ {
		for _, l1 := range []int{CacheMode, SPMMode} {
			for _, k := range ks {
				got := rand.New(rand.NewSource(seed))
				want := rand.New(rand.NewSource(seed))
				g, w := Sample(got, k, l1), referenceSample(want, k, l1)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d l1 %d k %d: sample differs from reference (len %d vs %d)", seed, l1, k, len(g), len(w))
				}
				if a, b := got.Int63(), want.Int63(); a != b {
					t.Fatalf("seed %d l1 %d k %d: next Int63 %d, reference %d", seed, l1, k, a, b)
				}
				cases++
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d cases", cases)
	}
}

// TestSampleResultIsCallerOwned checks that writing into a returned sample
// cannot leak into later calls, for both the shuffled and the whole-space
// path.
func TestSampleResultIsCallerOwned(t *testing.T) {
	for _, k := range []int{50, 32400} {
		s := Sample(rand.New(rand.NewSource(7)), k, SPMMode)
		for i := range s {
			s[i] = Config{}
		}
		got := Sample(rand.New(rand.NewSource(7)), k, SPMMode)
		want := referenceSample(rand.New(rand.NewSource(7)), k, SPMMode)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: mutating a returned sample changed the next call", k)
		}
	}
}

// TestSampleConcurrentFirstUse has 8 goroutines race to build a space on
// first use; every sample must match the reference. Run it under -race.
func TestSampleConcurrentFirstUse(t *testing.T) {
	spaceOnce, spaces = [2]sync.Once{}, [2][]Config{}
	got := make([][]Config, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = Sample(rand.New(rand.NewSource(int64(g))), 20, g%2)
		}()
	}
	wg.Wait()
	for g, s := range got {
		if want := referenceSample(rand.New(rand.NewSource(int64(g))), 20, g%2); !reflect.DeepEqual(s, want) {
			t.Fatalf("goroutine %d: sample differs from reference", g)
		}
	}
}

var sampleSink []Config

// BenchmarkConfigSample draws an oracle-sized sample (32 configurations,
// the small-scale OracleSamples) from one L1 type's space.
func BenchmarkConfigSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	Sample(rng, 32, CacheMode) // build the space outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampleSink = Sample(rng, 32, CacheMode)
	}
}
