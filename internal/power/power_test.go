package power

import (
	"math"
	"testing"
	"testing/quick"

	"sparseadapt/internal/config"
)

func TestVoltageNominal(t *testing.T) {
	if v := Voltage(FNomMHz); math.Abs(v-VDD) > 1e-9 {
		t.Fatalf("Voltage(nominal) = %v, want %v", v, VDD)
	}
	if v := Voltage(2 * FNomMHz); v != VDD {
		t.Fatalf("above-nominal clamped to VDD, got %v", v)
	}
}

func TestVoltageMonotonicAndClamped(t *testing.T) {
	prev := 0.0
	for _, f := range []float64{31.25, 62.5, 125, 250, 500, 1000} {
		v := Voltage(f)
		if v < prev {
			t.Fatalf("Voltage not monotonic at %v MHz: %v < %v", f, v, prev)
		}
		if v < 1.3*Vt-1e-12 {
			t.Fatalf("Voltage(%v) = %v below functional floor %v", f, v, 1.3*Vt)
		}
		prev = v
	}
}

func TestVoltageSatisfiesRelation(t *testing.T) {
	// Where unclamped, V must satisfy f/fnom = [(V−Vt)²/V] / [(VDD−Vt)²/VDD].
	for _, f := range []float64{250, 500, 750, 1000} {
		v := Voltage(f)
		lhs := f / FNomMHz
		rhs := ((v - Vt) * (v - Vt) / v) / ((VDD - Vt) * (VDD - Vt) / VDD)
		if math.Abs(lhs-rhs) > 1e-6 {
			t.Fatalf("relation violated at %v MHz: %v vs %v", f, lhs, rhs)
		}
	}
}

func TestScaleRange(t *testing.T) {
	f := func(raw uint16) bool {
		fMHz := 10 + float64(raw%2000)
		s := Scale(fMHz)
		return s > 0 && s <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if Scale(31.25) >= Scale(1000) {
		t.Fatal("lower clock should scale power down")
	}
}

func TestCacheAccessEnergyGrowsWithCapacity(t *testing.T) {
	prev := 0.0
	for _, kb := range []int{4, 8, 16, 32, 64} {
		e := CacheAccessJ(kb)
		if e <= prev {
			t.Fatalf("access energy not increasing at %d kB", kb)
		}
		prev = e
	}
	if SPMAccessJ(16) >= CacheAccessJ(16) {
		t.Fatal("SPM access must be cheaper than cache access")
	}
}

func TestChipLeakage(t *testing.T) {
	chip := Chip{Tiles: 2, GPEsPerTile: 8}
	if chip.NGPE() != 16 || chip.L1Banks() != 16 || chip.L2Banks() != 2 {
		t.Fatalf("chip arithmetic wrong: %+v", chip)
	}
	small := chip.LeakageW(config.Baseline)
	big := chip.LeakageW(config.MaxCfg)
	if big <= small {
		t.Fatal("larger caches must leak more")
	}
	spmCfg := config.BestAvgSPM
	cacheCfg := spmCfg
	cacheCfg[config.L1Type] = config.CacheMode
	if chip.LeakageW(spmCfg) >= chip.LeakageW(cacheCfg) {
		t.Fatal("SPM mode should leak less than cache mode at same capacity")
	}
}

func TestEnergyComposition(t *testing.T) {
	chip := Chip{Tiles: 2, GPEsPerTile: 8}
	cnt := Counts{GPEInstrs: 1000, L1Accesses: 400, L2Accesses: 50, DRAMReadBytes: 640}
	e1 := Energy(chip, config.Baseline, cnt, 1e-6)
	if e1 <= 0 {
		t.Fatal("energy must be positive")
	}
	cnt2 := cnt
	cnt2.GPEInstrs *= 2
	if Energy(chip, config.Baseline, cnt2, 1e-6) <= e1 {
		t.Fatal("more work must cost more energy")
	}
	// Same event counts at a lower clock (longer time) but scaled voltage:
	// dynamic part must shrink by the DVFS factor.
	slow := config.Baseline
	slow[config.Clock] = 0 // 31.25 MHz
	eSlow := Energy(chip, slow, cnt, 1e-6)
	if eSlow >= e1 {
		t.Fatalf("DVFS scaling should cut energy at equal time: %v vs %v", eSlow, e1)
	}
}

func TestCountsAdd(t *testing.T) {
	a := Counts{GPEInstrs: 1, LCPInstrs: 2, L1Accesses: 3, SPMAccesses: 4,
		L2Accesses: 5, XbarTransfers: 6, XbarConts: 7, DRAMReadBytes: 8, DRAMWriteBytes: 9}
	b := a
	a.Add(b)
	if a.GPEInstrs != 2 || a.DRAMWriteBytes != 18 || a.XbarConts != 14 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestMetrics(t *testing.T) {
	m := Metrics{TimeSec: 2, EnergyJ: 4, FPOps: 8e9}
	if g := m.GFLOPS(); math.Abs(g-4) > 1e-9 {
		t.Fatalf("GFLOPS = %v", g)
	}
	if w := m.Watts(); math.Abs(w-2) > 1e-9 {
		t.Fatalf("Watts = %v", w)
	}
	if e := m.GFLOPSPerW(); math.Abs(e-2) > 1e-9 {
		t.Fatalf("GFLOPS/W = %v", e)
	}
	if s := m.Score(EnergyEfficient); math.Abs(s-2) > 1e-9 {
		t.Fatalf("EE score = %v", s)
	}
	if s := m.Score(PowerPerformance); math.Abs(s-32) > 1e-9 {
		t.Fatalf("PP score = %v, want 4³/2", s)
	}
	var zero Metrics
	if zero.GFLOPS() != 0 || zero.Score(EnergyEfficient) != 0 || zero.Score(PowerPerformance) != 0 {
		t.Fatal("zero metrics must score zero")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{TimeSec: 1, EnergyJ: 2, FPOps: 3}
	a.Add(Metrics{TimeSec: 4, EnergyJ: 5, FPOps: 6})
	if a.TimeSec != 5 || a.EnergyJ != 7 || a.FPOps != 9 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestModeString(t *testing.T) {
	if EnergyEfficient.String() == PowerPerformance.String() {
		t.Fatal("mode names must differ")
	}
}

// Property: power-performance mode rewards performance more steeply than
// efficiency mode — doubling speed at equal energy must raise the PP score
// by more than the EE score ratio.
func TestQuickPowerPerfPrefersSpeed(t *testing.T) {
	f := func(raw uint8) bool {
		tt := 0.5 + float64(raw)/64
		base := Metrics{TimeSec: tt, EnergyJ: 1, FPOps: 1e9}
		fast := Metrics{TimeSec: tt / 2, EnergyJ: 1, FPOps: 1e9}
		eeRatio := fast.Score(EnergyEfficient) / base.Score(EnergyEfficient)
		ppRatio := fast.Score(PowerPerformance) / base.Score(PowerPerformance)
		return ppRatio > eeRatio
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyBreakdownSumsToEnergy(t *testing.T) {
	chip := Chip{Tiles: 2, GPEsPerTile: 8}
	cnt := Counts{GPEInstrs: 5000, LCPInstrs: 100, L1Accesses: 2000, SPMAccesses: 10,
		L2Accesses: 300, XbarTransfers: 2300, XbarConts: 40,
		DRAMReadBytes: 6400, DRAMWriteBytes: 1280}
	for _, cfg := range []config.Config{config.Baseline, config.MaxCfg, config.BestAvgSPM} {
		b := EnergyBreakdown(chip, cfg, cnt, 1e-5)
		want := Energy(chip, cfg, cnt, 1e-5)
		if d := b.TotalJ() - want; d > want*1e-9 || d < -want*1e-9 {
			t.Fatalf("%v: breakdown %v != Energy %v", cfg, b.TotalJ(), want)
		}
		if b.String() == "breakdown{empty}" {
			t.Fatal("non-empty breakdown rendered as empty")
		}
	}
	if (Breakdown{}).String() != "breakdown{empty}" {
		t.Fatal("empty breakdown should say so")
	}
}

func TestBreakdownLeakageDominatesIdleMaxCfg(t *testing.T) {
	chip := Chip{Tiles: 2, GPEsPerTile: 8}
	// Nearly idle epoch at Max Cfg: leakage must dominate.
	cnt := Counts{GPEInstrs: 10}
	b := EnergyBreakdown(chip, config.MaxCfg, cnt, 1e-3)
	if b.LeakageJ < 0.9*b.TotalJ() {
		t.Fatalf("idle Max Cfg should be leakage-dominated: %v", b)
	}
}

func TestModeByName(t *testing.T) {
	for _, m := range []Mode{EnergyEfficient, PowerPerformance} {
		for _, name := range []string{m.Name(), m.String()} {
			if got, err := ModeByName(name); err != nil || got != m {
				t.Errorf("ModeByName(%q) = %v, %v; want %v", name, got, err, m)
			}
		}
	}
	if EnergyEfficient.Name() != "ee" || PowerPerformance.Name() != "pp" {
		t.Fatal("short mode names changed")
	}
	if _, err := ModeByName("EE"); err == nil {
		t.Error("unknown mode accepted")
	}
}
