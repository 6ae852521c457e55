package sim

import (
	"sync"
	"testing"
)

// fingerprintTrace builds a small trace that exercises every field the
// fingerprint covers: events of every kind on GPE and LCP cores, named
// regions of every kind (one with a negative priority), phases and NNZ.
func fingerprintTrace() *Trace {
	b := NewBuilder(testChip.NGPE(), testChip.Tiles)
	a := b.AllocRegion("a-vals", 4096, RegionStream, 2)
	h := b.AllocRegion("hash", 1024, RegionReuse, -1)
	q := b.AllocRegion("queue", 64, RegionBookkeep, 0)
	b.Phase("multiply")
	for i := 0; i < 200; i++ {
		b.On(i % testChip.NGPE())
		b.LoadF(uint16(i%7), a.Lo+uint32(i*8))
		b.LoadI(9, h.Lo+uint32(i*4%1024))
		b.FP(1 + i%3)
		b.StoreF(11, h.Lo+uint32(i*8%1024))
	}
	b.Phase("merge")
	for i := 0; i < 50; i++ {
		b.On(testChip.NGPE() + i%testChip.Tiles)
		b.StoreI(13, q.Lo+uint32(i%16)*4)
		b.Int(2)
	}
	b.SetNNZ(321)
	return b.Build()
}

// TestFingerprintPinned pins the fingerprint of a fixed trace. The oracle
// row, trainer point, replay memo and peer-fetch keys all embed it, so its
// value must not change without a cache-key version bump.
func TestFingerprintPinned(t *testing.T) {
	const want uint64 = 0xa34907f51d18262a
	if got := fingerprintTrace().Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %#x, want %#x", got, want)
	}
}

// TestFingerprintConcurrentFirstCall has 8 goroutines race to compute a
// fresh trace's cached fingerprint; every caller must see the uncached
// value. Run it under -race.
func TestFingerprintConcurrentFirstCall(t *testing.T) {
	tr := fingerprintTrace()
	want := fingerprintTrace().fingerprint()
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = tr.Fingerprint()
		}()
	}
	wg.Wait()
	for g, v := range got {
		if v != want {
			t.Fatalf("goroutine %d: Fingerprint = %#x, uncached %#x", g, v, want)
		}
	}
}

var fpSink uint64

// BenchmarkTraceFingerprint times a 64k-event trace's fingerprint: "cold"
// is the first call on a fresh trace (the full hash), "warm" a repeat call
// (the cached value).
func BenchmarkTraceFingerprint(b *testing.B) {
	tr := streamTrace(2048)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh := &Trace{Events: tr.Events, Regions: tr.Regions, Phases: tr.Phases,
				NCores: tr.NCores, NLCP: tr.NLCP, FPOps: tr.FPOps, NNZ: tr.NNZ}
			fpSink = fresh.Fingerprint()
		}
	})
	b.Run("warm", func(b *testing.B) {
		tr.Fingerprint()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fpSink = tr.Fingerprint()
		}
	})
}
