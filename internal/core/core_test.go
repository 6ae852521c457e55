package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

var chip = power.Chip{Tiles: 2, GPEsPerTile: 8}

// constModel builds an ensemble that always predicts the given target
// configuration, by training single-leaf trees on constant labels.
func constModel(t *testing.T, target config.Config, mode power.Mode) *Ensemble {
	t.Helper()
	x := [][]float64{make([]float64, NumFeatures), make([]float64, NumFeatures)}
	x[1][0] = 1
	ens := &Ensemble{Trees: map[config.Param]*ml.Tree{}, Mode: mode}
	for _, p := range config.RuntimeParams {
		tree, err := ml.TrainTree(x, []int{target[p], target[p]}, ml.DefaultTreeParams())
		if err != nil {
			t.Fatal(err)
		}
		ens.Trees[p] = tree
	}
	return ens
}

func testWorkload(t *testing.T, seed int64) kernels.Workload {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	am := matrix.Uniform(rng, 128, 128, 1200)
	x := matrix.RandomVec(rng, 128, 0.5)
	_, w, _ := kernels.SpMSpV(am.ToCSC(), x, chip.NGPE(), chip.Tiles)
	return w
}

func TestFeatureLayout(t *testing.T) {
	f := BuildFeatures(config.Baseline, sim.Counters{ClockMHz: 1000})
	if len(f) != NumFeatures {
		t.Fatalf("feature length %d, want %d", len(f), NumFeatures)
	}
	names := FeatureNames()
	if len(names) != NumFeatures {
		t.Fatalf("name count %d", len(names))
	}
	// The leading entries are the runtime parameter value indices.
	for i, p := range config.RuntimeParams {
		if f[i] != float64(config.Baseline[p]) {
			t.Fatalf("feature %d should mirror %v", i, p)
		}
		if names[i] != "cfg-"+p.String() {
			t.Fatalf("name %d = %q", i, names[i])
		}
	}
	if FeatureGroup(0) != "Config" || FeatureGroup(ConfigFeatureCount) == "Config" {
		t.Fatal("group boundaries wrong")
	}
}

func TestEnsemblePredictPreservesL1Type(t *testing.T) {
	target := config.MaxCfg
	ens := constModel(t, target, power.EnergyEfficient)
	cur := config.BestAvgSPM // SPM L1 type
	got := ens.Predict(cur, sim.Counters{})
	if got[config.L1Type] != cur[config.L1Type] {
		t.Fatal("prediction must not change the compile-time L1 type")
	}
	for _, p := range config.RuntimeParams {
		if got[p] != target[p] {
			t.Fatalf("param %v = %d, want %d", p, got[p], target[p])
		}
	}
	if !got.Valid() {
		t.Fatal("invalid prediction")
	}
}

func TestEnsembleMissingTreeKeepsCurrent(t *testing.T) {
	ens := &Ensemble{Trees: map[config.Param]*ml.Tree{}}
	cur := config.Baseline
	if got := ens.Predict(cur, sim.Counters{}); got != cur {
		t.Fatal("empty ensemble must be identity")
	}
}

func TestGroupImportance(t *testing.T) {
	ens := constModel(t, config.MaxCfg, power.EnergyEfficient)
	if gi := ens.GroupImportance(config.Clock); gi == nil {
		t.Fatal("importance missing")
	}
	if ens.Importance(config.L1Type) != nil {
		t.Fatal("untrained parameter should have nil importance")
	}
}

func TestControllerFollowsModel(t *testing.T) {
	w := testWorkload(t, 1)
	target := config.Baseline
	target[config.Clock] = 2 // 125 MHz
	target[config.Prefetch] = 0
	ens := constModel(t, target, power.EnergyEfficient)
	ctl := NewController(ens, Options{Policy: Aggressive, EpochScale: 0.1})
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	res := ctl.Run(m, w)
	if res.Reconfig == 0 {
		t.Fatal("controller never reconfigured")
	}
	if m.Config() != target {
		t.Fatalf("final config %v, want %v", m.Config(), target)
	}
	// Exactly one reconfiguration: once at the target, predictions repeat it.
	if res.Reconfig != 1 {
		t.Fatalf("expected a single reconfiguration, got %d", res.Reconfig)
	}
	if len(res.Epochs) < 3 {
		t.Fatalf("too few epochs logged: %d", len(res.Epochs))
	}
}

func TestConservativeBlocksFlushingChanges(t *testing.T) {
	w := testWorkload(t, 2)
	target := config.Baseline
	target[config.L1Share] = config.Private // fine-grained (flush)
	target[config.Clock] = 3                // super-fine
	ens := constModel(t, target, power.EnergyEfficient)
	ctl := NewController(ens, Options{Policy: Conservative, EpochScale: 0.1})
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	ctl.Run(m, w)
	final := m.Config()
	if final[config.L1Share] != config.Shared {
		t.Fatal("conservative policy must block flushing changes")
	}
	if final[config.Clock] != 3 {
		t.Fatal("conservative policy must allow super-fine changes")
	}
}

func TestHybridToleranceGates(t *testing.T) {
	w := testWorkload(t, 3)
	target := config.Baseline
	target[config.L2Share] = config.Private
	ens := constModel(t, target, power.EnergyEfficient)

	// Zero tolerance behaves like conservative for flushing changes.
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	NewController(ens, Options{Policy: Hybrid, Tolerance: 0, EpochScale: 0.1}).Run(m, w)
	if m.Config()[config.L2Share] != config.Shared {
		t.Fatal("zero-tolerance hybrid must block the flush")
	}

	// Generous tolerance admits it.
	m2 := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	NewController(ens, Options{Policy: Hybrid, Tolerance: 100, EpochScale: 0.1}).Run(m2, w)
	if m2.Config()[config.L2Share] != config.Private {
		t.Fatal("high-tolerance hybrid must allow the flush")
	}
}

func TestRunStaticMatchesManualReplay(t *testing.T) {
	w := testWorkload(t, 4)
	res := RunStatic(chip, sim.DefaultBandwidth, config.Baseline, w, 0.1)
	if res.Total.TimeSec <= 0 || res.Total.FPOps <= 0 {
		t.Fatalf("degenerate static run %+v", res.Total)
	}
	if res.Reconfig != 0 {
		t.Fatal("static run must not reconfigure")
	}
	// Identical to a controller run with an identity model.
	ens := constModel(t, config.Baseline, power.EnergyEfficient)
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	dyn := NewController(ens, Options{Policy: Aggressive, EpochScale: 0.1}).Run(m, w)
	if dyn.Total != res.Total {
		t.Fatalf("identity controller differs from static: %+v vs %+v", dyn.Total, res.Total)
	}
}

func TestDVFSAdaptationBeatsStaticOnMemoryBound(t *testing.T) {
	// At 1 GB/s the SpMSpV workload is memory-bound; a model that clamps
	// the clock low must beat the 1 GHz baseline on energy at similar time.
	w := testWorkload(t, 5)
	static := RunStatic(chip, sim.DefaultBandwidth, config.Baseline, w, 0.1)
	target := config.Baseline
	target[config.Clock] = 2
	ens := constModel(t, target, power.EnergyEfficient)
	m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	dyn := NewController(ens, Options{Policy: Aggressive, EpochScale: 0.1}).Run(m, w)
	if dyn.Total.EnergyJ >= static.Total.EnergyJ {
		t.Fatalf("DVFS adaptation should save energy: %v vs %v J", dyn.Total.EnergyJ, static.Total.EnergyJ)
	}
	if dyn.Total.TimeSec > 2.0*static.Total.TimeSec {
		t.Fatalf("DVFS on memory-bound workload should not badly hurt time: %v vs %v s",
			dyn.Total.TimeSec, static.Total.TimeSec)
	}
	if dyn.Total.Score(power.EnergyEfficient) <= static.Total.Score(power.EnergyEfficient) {
		t.Fatal("efficiency score should improve")
	}
}

func TestPolicyString(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []Policy{Conservative, Aggressive, Hybrid} {
		if s := p.String(); seen[s] {
			t.Fatalf("duplicate %q", s)
		} else {
			seen[s] = true
		}
	}
}

func TestEpochLogPhases(t *testing.T) {
	w := testWorkload(t, 6)
	res := RunStatic(chip, sim.DefaultBandwidth, config.Baseline, w, 0.1)
	for _, ep := range res.Epochs {
		if ep.Phase == "" {
			t.Fatal("epoch missing phase label")
		}
	}
}

// Property: whatever the model predicts, the controller only ever holds
// valid configurations and never changes the compile-time L1 type.
func TestQuickControllerConfigsAlwaysValid(t *testing.T) {
	w := testWorkload(t, 7)
	f := func(raw uint) bool {
		target := config.FromIndex(int(raw % uint(config.SpaceSize())))
		target[config.L1Type] = config.CacheMode
		ens := constModel(t, target, power.EnergyEfficient)
		m := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
		res := NewController(ens, Options{Policy: Aggressive, EpochScale: 0.2}).Run(m, w)
		for _, ep := range res.Epochs {
			if !ep.Config.Valid() || ep.Config[config.L1Type] != config.CacheMode {
				return false
			}
		}
		return m.Config().Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryFeatures(t *testing.T) {
	cfg := config.Baseline
	c1 := sim.Counters{ClockMHz: 1000}
	c2 := sim.Counters{ClockMHz: 500}
	// H=1 equals the published layout.
	h1 := BuildHistoryFeatures(cfg, []sim.Counters{c2}, 1)
	flat := BuildFeatures(cfg, c2)
	if len(h1) != len(flat) {
		t.Fatalf("H=1 width %d vs %d", len(h1), len(flat))
	}
	for i := range h1 {
		if h1[i] != flat[i] {
			t.Fatalf("H=1 differs at %d", i)
		}
	}
	// H=3 with a 2-frame window pads by repeating the oldest frame.
	h3 := BuildHistoryFeatures(cfg, []sim.Counters{c1, c2}, 3)
	if len(h3) != HistoryFeatureCount(3) {
		t.Fatalf("H=3 width %d", len(h3))
	}
	off := len(config.RuntimeParams)
	nf := sim.NumFeatures
	clockIdx := 15
	if h3[off+clockIdx] != 1000 || h3[off+nf+clockIdx] != 1000 || h3[off+2*nf+clockIdx] != 500 {
		t.Fatalf("padding wrong: %v %v %v", h3[off+clockIdx], h3[off+nf+clockIdx], h3[off+2*nf+clockIdx])
	}
	// Over-long windows keep the newest frames.
	hOver := BuildHistoryFeatures(cfg, []sim.Counters{c1, c1, c1, c2}, 2)
	if hOver[off+nf+clockIdx] != 500 {
		t.Fatal("window truncation dropped the newest frame")
	}
	// Empty window pads with a sanitized neutral frame, never raw zeros: a
	// zero frame (0 KB caches, 0 MHz clock) is impossible telemetry and must
	// not be fed to the model as if observed. Regression for the old
	// zero-frame padding path.
	got := BuildHistoryFeatures(cfg, nil, 2)
	if len(got) != HistoryFeatureCount(2) {
		t.Fatal("empty window width wrong")
	}
	neutral, _ := SanitizeCounters(sim.Counters{})
	nFeat := neutral.Features()
	capIdx, l2CapIdx := 4, 9 // L1CapKB, L2CapKB in Features order
	if nFeat[capIdx] == 0 || nFeat[l2CapIdx] == 0 || nFeat[clockIdx] == 0 {
		t.Fatalf("sanitized neutral frame still has impossible zeros: %v", nFeat)
	}
	for frame := 0; frame < 2; frame++ {
		for i, v := range nFeat {
			if got[off+frame*nf+i] != v {
				t.Fatalf("empty-window frame %d feature %d = %v, want sanitized %v", frame, i, got[off+frame*nf+i], v)
			}
		}
	}
}

func TestHistoryControllerH1MatchesPublished(t *testing.T) {
	w := testWorkload(t, 8)
	target := config.Baseline
	target[config.Clock] = 3
	ens := constModel(t, target, power.EnergyEfficient)
	m1 := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	a := NewController(ens, Options{Policy: Aggressive, EpochScale: 0.1}).Run(m1, w)
	m2 := sim.New(chip, sim.DefaultBandwidth, config.Baseline)
	b := NewHistoryController(ens, Options{Policy: Aggressive, EpochScale: 0.1}, 1).Run(m2, w)
	if a.Total != b.Total || a.Reconfig != b.Reconfig {
		t.Fatalf("H=1 history controller differs from published: %+v vs %+v", a.Total, b.Total)
	}
}

func TestPolicyByNameAndKernelOptions(t *testing.T) {
	for _, p := range []Policy{Conservative, Aggressive, Hybrid} {
		if got, err := PolicyByName(p.String()); err != nil || got != p {
			t.Errorf("PolicyByName(%q) = %v, %v", p, got, err)
		}
	}
	if _, err := PolicyByName("policy(7)"); err == nil {
		t.Error("unknown policy accepted")
	}
	if o := KernelOptions("spmspm", 0.5); o != (Options{Policy: Conservative, EpochScale: 0.5}) {
		t.Errorf("spmspm options %+v", o)
	}
	for _, k := range []string{"spmspv", "bfs"} {
		if o := KernelOptions(k, 0.5); o != (Options{Policy: Hybrid, Tolerance: 0.4, EpochScale: 0.5}) {
			t.Errorf("%s options %+v", k, o)
		}
	}
}

// TestOptionsFor checks the policy override is applied before the
// tolerance, so a hybrid override of SpMSpM's conservative default keeps
// the requested tolerance, and that with no overrides every kernel runs
// on its default options.
func TestOptionsFor(t *testing.T) {
	for _, k := range []string{"spmspm", "spmspv", "bfs", "sssp"} {
		if o, err := OptionsFor(k, 0.5, "", 0); err != nil || o != KernelOptions(k, 0.5) {
			t.Errorf("%s default options %+v, %v; want %+v", k, o, err, KernelOptions(k, 0.5))
		}
	}
	cases := []struct {
		kernel, policy string
		tol            float64
		want           Options
	}{
		{"spmspm", "hybrid", 0.9, Options{Policy: Hybrid, Tolerance: 0.9, EpochScale: 0.5}},
		{"spmspm", "hybrid", 0, Options{Policy: Hybrid, EpochScale: 0.5}},
		{"spmspm", "", 0.9, Options{Policy: Conservative, EpochScale: 0.5}},
		{"spmspv", "", 0.9, Options{Policy: Hybrid, Tolerance: 0.9, EpochScale: 0.5}},
		{"spmspv", "aggressive", 0.9, Options{Policy: Aggressive, Tolerance: 0.4, EpochScale: 0.5}},
	}
	for _, c := range cases {
		if o, err := OptionsFor(c.kernel, 0.5, c.policy, c.tol); err != nil || o != c.want {
			t.Errorf("OptionsFor(%s, %q, %g) = %+v, %v; want %+v", c.kernel, c.policy, c.tol, o, err, c.want)
		}
	}
	if _, err := OptionsFor("spmspv", 0.5, "greedy", 0); err == nil {
		t.Error("unknown policy accepted")
	}
}
