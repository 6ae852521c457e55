package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"sparseadapt/internal/config"
	"sparseadapt/internal/power"
)

var testChip = power.Chip{Tiles: 2, GPEsPerTile: 8}

// streamTrace builds a memory-bound trace: each GPE streams through its own
// large array once (no reuse).
func streamTrace(perGPE int) *Trace {
	b := NewBuilder(testChip.NGPE(), testChip.Tiles)
	regions := make([]Region, testChip.NGPE())
	for g := range regions {
		regions[g] = b.AllocRegion("stream", perGPE*8, RegionStream, 1)
	}
	b.Phase("stream")
	for i := 0; i < perGPE; i++ {
		for g := 0; g < testChip.NGPE(); g++ {
			b.On(g)
			b.LoadF(1, regions[g].Lo+uint32(i*8))
			b.FP(1)
		}
	}
	return b.Build()
}

// reuseTrace builds a compute-friendly trace: every GPE loops over a small
// shared working set many times.
func reuseTrace(wsBytes, iters int) *Trace {
	b := NewBuilder(testChip.NGPE(), testChip.Tiles)
	r := b.AllocRegion("hot", wsBytes, RegionReuse, 0)
	b.Phase("reuse")
	for it := 0; it < iters; it++ {
		for g := 0; g < testChip.NGPE(); g++ {
			b.On(g)
			b.LoadF(2, r.Lo+uint32((it*64+g*8)%wsBytes))
			b.FP(2)
		}
	}
	return b.Build()
}

func runWhole(m *Machine, tr *Trace, epochFP int) (power.Metrics, []EpochResult) {
	m.BindTrace(tr)
	var total power.Metrics
	var results []EpochResult
	for _, ep := range tr.Epochs(epochFP) {
		r := m.RunEpoch(ep)
		total.Add(r.Metrics)
		results = append(results, r)
	}
	return total, results
}

func TestEpochSegmentation(t *testing.T) {
	tr := streamTrace(100)
	eps := tr.Epochs(10) // 10 FP-ops/GPE → 160 FP ops per epoch
	if len(eps) < 5 {
		t.Fatalf("expected multiple epochs, got %d", len(eps))
	}
	// Coverage: epochs tile the trace exactly.
	at := 0
	totalFP := 0
	for _, ep := range eps {
		if ep.Start != at {
			t.Fatalf("gap at %d", at)
		}
		at = ep.End
		totalFP += ep.FPOps
	}
	if at != len(tr.Events) || totalFP != tr.FPOps {
		t.Fatalf("epochs don't cover trace: %d/%d events, %d/%d fpops",
			at, len(tr.Events), totalFP, tr.FPOps)
	}
}

func TestPhaseTracking(t *testing.T) {
	b := NewBuilder(testChip.NGPE(), testChip.Tiles)
	r := b.AllocRegion("x", 1024, RegionStream, 1)
	b.Phase("multiply")
	b.On(0)
	for i := 0; i < 100; i++ {
		b.LoadF(1, r.Lo)
	}
	b.Phase("merge")
	for i := 0; i < 100; i++ {
		b.LoadF(1, r.Lo)
	}
	tr := b.Build()
	if tr.PhaseAt(0) != "multiply" || tr.PhaseAt(150) != "merge" {
		t.Fatalf("phases: %q %q", tr.PhaseAt(0), tr.PhaseAt(150))
	}
}

func TestRegionAllocationDisjoint(t *testing.T) {
	b := NewBuilder(16, 2)
	r1 := b.AllocRegion("a", 1000, RegionStream, 1)
	r2 := b.AllocRegion("b", 1000, RegionReuse, 0)
	if r1.Hi > r2.Lo {
		t.Fatal("regions overlap")
	}
	tr := b.Build()
	if got := tr.RegionOf(r2.Lo + 5); got == nil || got.Name != "b" {
		t.Fatalf("RegionOf wrong: %+v", got)
	}
	if tr.RegionOf(0) != nil {
		t.Fatal("address 0 must be unmapped")
	}
}

func TestStreamIsMemoryBound(t *testing.T) {
	tr := streamTrace(2000)
	m := New(testChip, DefaultBandwidth, config.Baseline)
	_, results := runWhole(m, tr, 100)
	last := results[len(results)-1]
	if util := last.Counters.MemReadUtil; util < 0.5 {
		t.Fatalf("streaming at 1 GHz should saturate 1 GB/s, util %v", util)
	}
	if last.Counters.L1MissRate < 0.05 {
		t.Fatalf("streaming should miss, rate %v", last.Counters.L1MissRate)
	}
}

func TestDVFSOnMemoryBoundPhase(t *testing.T) {
	tr := streamTrace(2000)
	fast := New(testChip, DefaultBandwidth, config.Baseline)
	mFast, _ := runWhole(fast, tr, 100)

	slowCfg := config.Baseline
	slowCfg[config.Clock] = 3 // 250 MHz
	slow := New(testChip, DefaultBandwidth, slowCfg)
	mSlow, _ := runWhole(slow, tr, 100)

	if mSlow.TimeSec > mFast.TimeSec*1.35 {
		t.Fatalf("memory-bound phase should tolerate DVFS: %v vs %v s", mSlow.TimeSec, mFast.TimeSec)
	}
	if mSlow.EnergyJ >= mFast.EnergyJ {
		t.Fatalf("DVFS should save energy when memory-bound: %v vs %v J", mSlow.EnergyJ, mFast.EnergyJ)
	}
}

func TestDVFSOnComputeBoundPhaseHurts(t *testing.T) {
	tr := reuseTrace(2048, 3000)
	fast := New(testChip, DefaultBandwidth, config.Baseline)
	mFast, _ := runWhole(fast, tr, 100)

	slowCfg := config.Baseline
	slowCfg[config.Clock] = 0 // 31.25 MHz
	slow := New(testChip, DefaultBandwidth, slowCfg)
	mSlow, _ := runWhole(slow, tr, 100)

	if mSlow.TimeSec < 4*mFast.TimeSec {
		t.Fatalf("compute-bound phase must slow with clock: %v vs %v", mSlow.TimeSec, mFast.TimeSec)
	}
}

func TestCacheCapacityReducesMisses(t *testing.T) {
	// 200 kB working set cycled ~3×: fits in 16×64 kB shared L1, thrashes
	// 16×4 kB. Prefetching off to isolate the capacity effect.
	tr := reuseTrace(200*1024, 10000)
	smallCfg := config.Baseline
	smallCfg[config.Prefetch] = 0
	small := New(testChip, DefaultBandwidth, smallCfg)
	_, rs := runWhole(small, tr, 100)
	bigCfg := config.MaxCfg
	bigCfg[config.Prefetch] = 0
	big := New(testChip, DefaultBandwidth, bigCfg)
	_, rb := runWhole(big, tr, 100)

	missSmall := rs[len(rs)-1].Counters.L1MissRate
	missBig := rb[len(rb)-1].Counters.L1MissRate
	if missBig >= missSmall {
		t.Fatalf("bigger caches should cut steady-state misses: %v vs %v", missBig, missSmall)
	}
}

func TestPrefetcherHelpsStreaming(t *testing.T) {
	// With headroom (64 kB banks) a strided stream should be almost fully
	// covered by the stride prefetcher; compare at high bandwidth so the
	// hidden latency shows up in time.
	tr := streamTrace(3000)
	noPf := config.MaxCfg
	noPf[config.Prefetch] = 0
	mHB0 := New(testChip, 100e9, noPf)
	hb0, _ := runWhole(mHB0, tr, 500)

	pf := config.MaxCfg // degree 8
	mHB8 := New(testChip, 100e9, pf)
	hb8, r8 := runWhole(mHB8, tr, 500)

	if r8[len(r8)-1].Counters.L1PrefRatio == 0 {
		t.Fatal("prefetcher should issue on strided stream")
	}
	if hb8.TimeSec >= hb0.TimeSec {
		t.Fatalf("prefetching should hide latency at high bandwidth: %v vs %v", hb8.TimeSec, hb0.TimeSec)
	}
}

func TestPrefetcherPollutesTinyCache(t *testing.T) {
	// The flip side (the reason the knob is adaptive): aggressive
	// prefetching into 4 kB banks with 8 interleaved streams per tile
	// conflict-thrashes and wastes bandwidth.
	tr := streamTrace(3000)
	noPf := config.Baseline
	noPf[config.Prefetch] = 0
	m0 := New(testChip, 100e9, noPf)
	t0, _ := runWhole(m0, tr, 500)
	m8cfg := config.Baseline
	m8cfg[config.Prefetch] = 2
	m8 := New(testChip, 100e9, m8cfg)
	t8, _ := runWhole(m8, tr, 500)
	if t8.EnergyJ <= t0.EnergyJ {
		t.Fatalf("useless prefetch traffic should cost energy: %v vs %v J", t8.EnergyJ, t0.EnergyJ)
	}
	_ = t0
}

func TestSharedVsPrivateL1(t *testing.T) {
	// All GPEs hammer the same small structure: shared L1 keeps one copy
	// and hits; private L1 duplicates it (more L2 traffic on first touch)
	// but still hits afterwards. Both must run; shared sees xbar transfers.
	tr := reuseTrace(4096, 1500)
	shared := New(testChip, DefaultBandwidth, config.Baseline)
	_, rs := runWhole(shared, tr, 100)
	priv := config.Baseline
	priv[config.L1Share] = config.Private
	privM := New(testChip, DefaultBandwidth, priv)
	_, rp := runWhole(privM, tr, 100)

	if rs[len(rs)-1].Counters.XbarL1Cont < 0 {
		t.Fatal("contention ratio negative")
	}
	if rp[len(rp)-1].Counters.L1MissRate > 0.5 {
		t.Fatalf("private reuse should eventually hit, miss %v", rp[len(rp)-1].Counters.L1MissRate)
	}
}

func TestSPMResidency(t *testing.T) {
	tr := reuseTrace(4096, 1000)
	cfg := config.BestAvgSPM
	m := New(testChip, DefaultBandwidth, cfg)
	total, rs := runWhole(m, tr, 100)
	if total.TimeSec <= 0 {
		t.Fatal("no time elapsed")
	}
	last := rs[len(rs)-1]
	if last.Counters.L1MissRate != 0 {
		t.Fatal("SPM has no misses by definition")
	}
	if last.Counters.L1AccessRate == 0 {
		t.Fatal("SPM accesses should be recorded for the reuse region")
	}
}

func TestSPMCapacityLimitsResidency(t *testing.T) {
	// Reuse region far larger than total scratchpad: most accesses bypass.
	big := reuseTrace(4*1024*1024, 200)
	cfg := config.BestAvgSPM
	cfg[config.L1Cap] = 0 // 4 kB banks → 64 kB total SPM
	m := New(testChip, DefaultBandwidth, cfg)
	m.BindTrace(big)
	if len(m.spmRanges) == 0 {
		t.Fatal("some prefix of the region should be pinned")
	}
	r := m.spmRanges[0]
	if r.Hi-r.Lo > uint32(testChip.L1Banks()*4*1024) {
		t.Fatalf("pinned range exceeds SPM capacity: %d bytes", r.Hi-r.Lo)
	}
}

func TestCountersSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(testChip.NGPE(), testChip.Tiles)
	reg := b.AllocRegion("r", 64*1024, RegionStream, 1)
	for i := 0; i < 5000; i++ {
		b.On(rng.Intn(testChip.NGPE()))
		b.LoadF(uint16(rng.Intn(10)), reg.Lo+uint32(rng.Intn(64*1024)))
		b.Int(1)
		b.FP(1)
	}
	b.On(testChip.NGPE()) // LCP 0 bookkeeping
	b.Int(50)
	b.LoadI(20, reg.Lo)
	tr := b.Build()

	m := New(testChip, DefaultBandwidth, config.Baseline)
	_, rs := runWhole(m, tr, 50)
	for _, r := range rs {
		c := r.Counters
		for i, f := range c.Features() {
			if f < 0 {
				t.Fatalf("feature %s negative: %v", FeatureNames()[i], f)
			}
		}
		for _, ratio := range []float64{c.L1MissRate, c.L2MissRate, c.L1Occupancy, c.L2Occupancy,
			c.MemReadUtil, c.MemWriteUtil} {
			if ratio < 0 || ratio > 1.0001 {
				t.Fatalf("ratio out of range: %v (counters %+v)", ratio, c)
			}
		}
		if c.GPEIPC <= 0 || c.GPEIPC > 1 {
			t.Fatalf("GPE IPC out of range: %v", c.GPEIPC)
		}
		if c.ClockMHz != 1000 {
			t.Fatalf("clock counter %v", c.ClockMHz)
		}
	}
	if len(FeatureNames()) != NumFeatures {
		t.Fatalf("feature name count %d", len(FeatureNames()))
	}
	groups := map[string]bool{}
	for i := 0; i < NumFeatures; i++ {
		groups[FeatureGroup(i)] = true
	}
	if len(groups) < 5 {
		t.Fatalf("expected ≥5 feature groups, got %v", groups)
	}
}

func TestReconfigureSuperFine(t *testing.T) {
	tr := streamTrace(500)
	m := New(testChip, DefaultBandwidth, config.Baseline)
	m.BindTrace(tr)
	to := config.Baseline
	to[config.Clock] = 3
	to[config.Prefetch] = 0
	rc, err := m.Reconfigure(to)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cycles != 200 {
		t.Fatalf("two super-fine changes should cost 200 cycles, got %v", rc.Cycles)
	}
	if rc.L1Flushed != 0 || rc.L2Flushed != 0 {
		t.Fatal("super-fine changes must not flush")
	}
	if m.Config() != to {
		t.Fatal("config not applied")
	}
}

func TestReconfigureFlushCost(t *testing.T) {
	// Dirty the caches with stores, then force an L1 flush.
	b := NewBuilder(testChip.NGPE(), testChip.Tiles)
	reg := b.AllocRegion("w", 32*1024, RegionStream, 1)
	for i := 0; i < 2000; i++ {
		b.On(i % testChip.NGPE())
		b.StoreF(1, reg.Lo+uint32(i*8%(32*1024)))
	}
	tr := b.Build()
	m := New(testChip, DefaultBandwidth, config.Baseline)
	m.BindTrace(tr)
	eps := tr.Epochs(100)
	r := m.RunEpoch(eps[0])
	if r.DirtyL1 == 0 {
		t.Fatal("stores must dirty the L1")
	}
	to := m.Config()
	to[config.L1Share] = config.Private
	rc, err := m.Reconfigure(to)
	if err != nil {
		t.Fatal(err)
	}
	if rc.L1Flushed == 0 {
		t.Fatal("sharing change must flush dirty L1 lines")
	}
	if rc.Cycles < float64(rc.L1Flushed)*flushCyclesPerLine {
		t.Fatalf("flush cost too low: %v cycles for %d lines", rc.Cycles, rc.L1Flushed)
	}
	// Penalty must be folded into the next epoch.
	if len(eps) < 2 {
		t.Fatal("need a second epoch")
	}
	r2 := m.RunEpoch(eps[1])
	if r2.Metrics.TimeSec <= 0 {
		t.Fatal("second epoch has no time")
	}
}

func TestReconfigureCoarseRejected(t *testing.T) {
	m := New(testChip, DefaultBandwidth, config.Baseline)
	m.BindTrace(streamTrace(10))
	to := config.BestAvgSPM // changes L1 type
	// The error lists the changed parameters as a []Param prints.
	var changed []config.Param
	for p := config.Param(0); p < config.NumParams; p++ {
		if to[p] != config.Baseline[p] {
			changed = append(changed, p)
		}
	}
	want := fmt.Sprintf("sim: coarse parameter change %v requires recompilation", changed)
	if _, err := m.Reconfigure(to); err == nil || err.Error() != want {
		t.Fatalf("Reconfigure error %v, want %q", err, want)
	}
	if _, err := m.ContextSwitch(to); err == nil || err.Error() != want {
		t.Fatalf("ContextSwitch error %v, want %q", err, want)
	}
}

func TestReconfigureCapacityGrowCheap(t *testing.T) {
	tr := streamTrace(500)
	m := New(testChip, DefaultBandwidth, config.Baseline)
	m.BindTrace(tr)
	m.RunEpoch(tr.Epochs(100)[0])
	to := m.Config()
	to[config.L1Cap] = 4 // grow to 64 kB
	rc, err := m.Reconfigure(to)
	if err != nil {
		t.Fatal(err)
	}
	if rc.L1Flushed != 0 {
		t.Fatal("capacity increase must not flush (sub-banked design)")
	}
	if rc.Cycles != config.SuperFineCycles {
		t.Fatalf("grow cost %v, want %d", rc.Cycles, config.SuperFineCycles)
	}
}

func TestTransitionPenaltyPure(t *testing.T) {
	from := config.Baseline
	to := from
	to[config.Clock] = 2
	tSec, e := TransitionPenalty(testChip, from, to, 500, 100, 0, DefaultBandwidth)
	if tSec <= 0 || e <= 0 {
		t.Fatalf("penalty %v s %v J", tSec, e)
	}
	// No-op transition is free.
	if tSec, e = TransitionPenalty(testChip, from, from, 500, 100, 0, DefaultBandwidth); tSec != 0 || e != 0 {
		t.Fatal("identity transition must be free")
	}
	// A flushing transition with more dirty lines costs more.
	flushTo := from
	flushTo[config.L1Share] = config.Private
	t1, _ := TransitionPenalty(testChip, from, flushTo, 100, 0, 0, DefaultBandwidth)
	t2, _ := TransitionPenalty(testChip, from, flushTo, 10000, 0, 0, DefaultBandwidth)
	if t2 <= t1 {
		t.Fatalf("dirtier flush must cost more: %v vs %v", t2, t1)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := streamTrace(800)
	run := func() power.Metrics {
		m := New(testChip, DefaultBandwidth, config.Baseline)
		total, _ := runWhole(m, tr, 100)
		return total
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay not deterministic: %+v vs %+v", a, b)
	}
}

func TestTraceString(t *testing.T) {
	tr := streamTrace(10)
	if tr.String() == "" {
		t.Fatal("empty description")
	}
}

func TestEpochCountsMatchEnergy(t *testing.T) {
	tr := streamTrace(800)
	m := New(testChip, DefaultBandwidth, config.Baseline)
	m.BindTrace(tr)
	for _, ep := range tr.Epochs(100) {
		r := m.RunEpoch(ep)
		b := power.EnergyBreakdown(testChip, config.Baseline, r.Counts, r.Metrics.TimeSec)
		if d := b.TotalJ() - r.Metrics.EnergyJ; d > 1e-15 || d < -1e-15 {
			t.Fatalf("breakdown %v != epoch energy %v", b.TotalJ(), r.Metrics.EnergyJ)
		}
	}
}

// Property: FP-op totals are configuration-invariant — the same trace under
// any configuration performs the same floating-point work.
func TestQuickFPOpsConfigInvariant(t *testing.T) {
	tr := streamTrace(500)
	want := -1.0
	f := func(raw uint) bool {
		cfg := config.FromIndex(int(raw % uint(config.SpaceSize())))
		if cfg.L1IsSPM() {
			cfg[config.L1Type] = config.CacheMode
		}
		m := New(testChip, DefaultBandwidth, cfg)
		total, _ := runWhole(m, tr, 100)
		if want < 0 {
			want = total.FPOps
		}
		return total.FPOps == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
