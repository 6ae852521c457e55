// Package verify is the repository's end-to-end correctness subsystem: the
// safety net that makes cross-package behavioral regressions visible even
// when every unit test stays green. It has three pillars:
//
//   - A golden-trace regression harness: a canonical corpus of small
//     scenarios (kernel × matrix structure × configuration schedule) whose
//     per-epoch counter digests, energy totals and controller decision
//     sequences are committed as golden JSON files. Any change to the
//     simulator, power model, kernels, controller or trainer that shifts
//     observable behavior fails the comparison with a readable diff naming
//     the scenario, epoch and field; intentional changes re-bless the
//     corpus with `go test ./internal/verify -run TestGolden -update`.
//
//   - Differential checking: naive dense reference implementations of each
//     sparse kernel validated against the traced kernels, and a cross-check
//     that the learned controller's energy-delay product stays within a
//     configured ratio of the brute-force oracle's Ideal Static bound on
//     the corpus.
//
//   - A property-based/metamorphic framework (prop.go, invariants.go) with
//     seeded generators asserting physical invariants of the model — cache
//     misses monotone in capacity, power monotone in frequency, FLOPs
//     invariant under row permutation, reconfiguration penalties exactly
//     conserved — where every failure reports the seed that replays it.
//
// The `sparseadapt verify` subcommand runs all three pillars; CI runs them
// on every push at two worker counts to pin down scheduling determinism.
package verify

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
	"sparseadapt/internal/trainer"
)

// corpusChip is the machine topology every corpus scenario runs on: half
// the paper's 2×8 system, big enough to exercise sharing/contention and
// small enough that the whole corpus replays in a couple of seconds.
var corpusChip = power.Chip{Tiles: 2, GPEsPerTile: 4}

// corpusBW is the corpus off-chip bandwidth (the paper's deployment point).
const corpusBW = 1e9

// Schedule decides the configuration for the next epoch of a scenario run.
type Schedule interface {
	// Name identifies the schedule in golden files and reports.
	Name() string
	// Start returns the initial configuration.
	Start() config.Config
	// Next returns the configuration to enter epoch i+1 with, given the
	// epoch-i result (the machine currently holds cur). Static schedules
	// return cur unchanged.
	Next(i int, cur config.Config, r sim.EpochResult) config.Config
}

// staticSchedule holds one configuration for the whole run.
type staticSchedule struct {
	name string
	cfg  config.Config
}

func (s staticSchedule) Name() string         { return s.name }
func (s staticSchedule) Start() config.Config { return s.cfg }
func (s staticSchedule) Next(int, config.Config, sim.EpochResult) config.Config {
	return s.cfg
}

// alternateSchedule flips between two configurations every `period` epochs,
// exercising Reconfigure (flushes, resizes, prefetcher resets) on a fixed,
// model-free cadence.
type alternateSchedule struct {
	a, b   config.Config
	period int
}

func (s alternateSchedule) Name() string         { return "alternate" }
func (s alternateSchedule) Start() config.Config { return s.a }
func (s alternateSchedule) Next(i int, _ config.Config, _ sim.EpochResult) config.Config {
	if ((i+1)/s.period)%2 == 1 {
		return s.b
	}
	return s.a
}

// controllerSchedule drives the run through the real core.Controller with a
// deterministic corpus-trained model, so golden decision sequences cover
// the model/controller layers too.
type controllerSchedule struct {
	mode power.Mode
}

func (s controllerSchedule) Name() string {
	return "controller-" + s.mode.String()
}
func (s controllerSchedule) Start() config.Config { return config.Baseline }
func (s controllerSchedule) Next(int, config.Config, sim.EpochResult) config.Config {
	panic("verify: controller schedule is driven by core.Controller, not Next")
}

// modelSchedule drives the run through a core controller bound to the
// scenario's natural workload (its own Workload.Epochs grid, algorithm axes
// pinned): core.Controller by default, core.HistoryController over an
// h-epoch window when h > 1, core.ResilientController when faults is set.
// With resumeAt > 0 the resilient run stops after that many epochs with a
// checkpoint and is resumed on a fresh machine; the resumed run must equal
// the uninterrupted one epoch for epoch.
type modelSchedule struct {
	name     string
	h        int
	faults   string
	resumeAt int
}

func (s modelSchedule) Name() string         { return s.name }
func (s modelSchedule) Start() config.Config { return config.Baseline }
func (s modelSchedule) Next(int, config.Config, sim.EpochResult) config.Config {
	panic("verify: model schedule is driven by a core controller, not Next")
}

// Scenario is one corpus entry: a workload recipe plus a config schedule.
type Scenario struct {
	Name       string
	Kernel     string // "spmspm" or "spmspv"
	Gen        string // matrix generator: uniform|banded|rmat|strips
	Dim        int
	NNZ        int
	Seed       int64
	Schedule   Schedule
	EpochScale float64
}

// Corpus returns the canonical scenario set. Names are stable identifiers:
// golden files are keyed by them, and `sparseadapt verify -scenario` selects
// by them. Keep additions append-only; renaming a scenario orphans its
// golden file.
func Corpus() []Scenario {
	return []Scenario{
		{
			Name: "spmspv-uniform-baseline", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   staticSchedule{"static-baseline", config.Baseline},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-rmat-maxcfg", Kernel: "spmspv", Gen: "rmat",
			Dim: 64, NNZ: 500, Seed: 2,
			Schedule:   staticSchedule{"static-maxcfg", config.MaxCfg},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-banded-alternate", Kernel: "spmspv", Gen: "banded",
			Dim: 96, NNZ: 600, Seed: 3,
			Schedule:   alternateSchedule{a: config.BestAvgCache, b: config.MaxCfg, period: 2},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-uniform-spm", Kernel: "spmspv", Gen: "uniform",
			Dim: 80, NNZ: 500, Seed: 4,
			Schedule:   staticSchedule{"static-bestavg-spm", config.BestAvgSPM},
			EpochScale: 0.05,
		},
		{
			Name: "spmspv-uniform-controller-ee", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   controllerSchedule{mode: power.EnergyEfficient},
			EpochScale: 0.05,
		},
		{
			Name: "spmspm-uniform-baseline", Kernel: "spmspm", Gen: "uniform",
			Dim: 48, NNZ: 350, Seed: 5,
			Schedule:   staticSchedule{"static-baseline", config.Baseline},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-strips-bestavg", Kernel: "spmspm", Gen: "strips",
			Dim: 48, NNZ: 0, Seed: 6, // strips sizes by density, not NNZ
			Schedule:   staticSchedule{"static-bestavg", config.BestAvgCache},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-banded-alternate", Kernel: "spmspm", Gen: "banded",
			Dim: 48, NNZ: 400, Seed: 7,
			Schedule:   alternateSchedule{a: config.Baseline, b: config.BestAvgCache, period: 3},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-uniform-inner", Kernel: "spmspm", Gen: "uniform",
			Dim: 48, NNZ: 350, Seed: 8,
			Schedule:   staticSchedule{"static-inner-csr", withAlgo(config.Baseline, config.DFInner, config.FmtCSR, config.SchedRR)},
			EpochScale: 0.02,
		},
		{
			Name: "spmspm-banded-row", Kernel: "spmspm", Gen: "banded",
			Dim: 48, NNZ: 400, Seed: 9,
			Schedule:   staticSchedule{"static-row-csr", withAlgo(config.Baseline, config.DFRow, config.FmtCSR, config.SchedRR)},
			EpochScale: 0.02,
		},
		{
			// Mid-run CSR→CSC format switches on the outer dataflow: the
			// alternate schedule crosses the Format axis, exercising the
			// algorithmic reconfiguration path (conversion charge, full
			// flush, trace rebind onto the aligned epoch grid).
			Name: "spmspm-uniform-format-switch", Kernel: "spmspm", Gen: "uniform",
			Dim: 48, NNZ: 350, Seed: 10,
			Schedule: alternateSchedule{
				a:      withAlgo(config.Baseline, config.DFOuter, config.FmtCSR, config.SchedRR),
				b:      config.Baseline, // natural point: outer/csc/rr
				period: 3,
			},
			EpochScale: 0.02,
		},
		{
			Name: "spmspv-uniform-coo-ll", Kernel: "spmspv", Gen: "uniform",
			Dim: 80, NNZ: 500, Seed: 11,
			Schedule:   staticSchedule{"static-coo-ll", withAlgo(config.Baseline, config.DFOuter, config.FmtCOO, config.SchedLL)},
			EpochScale: 0.05,
		},
		{
			// Controller.Run bound to one workload: the algorithm axes stay
			// pinned and epochs follow Workload.Epochs(scale), a different
			// grid from the source-aligned one above.
			Name: "spmspv-uniform-controller-workload", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   modelSchedule{name: "controller-workload-ee"},
			EpochScale: 0.02,
		},
		{
			Name: "spmspv-uniform-history-h2", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   modelSchedule{name: "history-h2-ee", h: 2},
			EpochScale: 0.02,
		},
		{
			Name: "spmspv-uniform-resilient-faults", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   modelSchedule{name: "resilient-faults", faults: corpusFaults},
			EpochScale: 0.02,
		},
		{
			Name: "spmspv-uniform-resilient-resume", Kernel: "spmspv", Gen: "uniform",
			Dim: 96, NNZ: 700, Seed: 1,
			Schedule:   modelSchedule{name: "resilient-resume-at-9", faults: corpusFaults, resumeAt: 9},
			EpochScale: 0.02,
		},
	}
}

// corpusFaults is the fault spec of the resilient scenarios: telemetry,
// prediction and reconfiguration faults at rates that, under the aggressive
// policy and the tightened watchdog of runResilient, produce repairs,
// dropped telemetry, rejected predictions, reconfiguration retries and
// failures, and watchdog trips up to a permanent fallback.
const corpusFaults = "nan=0.05,zero=0.1,drop=0.1,wild=0.2,rc-drop=0.5,rc-penalty=0.5,mult=200,seed=3"

// withAlgo returns c with its algorithm axes set, for schedule literals.
func withAlgo(c config.Config, dataflow, format, sched int) config.Config {
	c[config.Dataflow], c[config.Format], c[config.SchedPolicy] = dataflow, format, sched
	return c
}

// ScenarioByName finds a corpus scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Corpus() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("verify: unknown scenario %q", name)
}

// buildMatrix realizes the scenario's matrix recipe.
func buildMatrix(s Scenario) (*matrix.COO, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	switch s.Gen {
	case "uniform":
		return matrix.Uniform(rng, s.Dim, s.Dim, s.NNZ), nil
	case "banded":
		return matrix.Banded(rng, s.Dim, s.NNZ, 6), nil
	case "rmat":
		return matrix.RMATDefault(rng, s.Dim, s.NNZ), nil
	case "strips":
		return matrix.DenseStrips(rng, s.Dim, 0.12, 3), nil
	default:
		return nil, fmt.Errorf("verify: unknown generator %q", s.Gen)
	}
}

// Workload builds the scenario's kernel workload (deterministic in Seed).
func (s Scenario) Workload() (kernels.Workload, error) {
	am, err := buildMatrix(s)
	if err != nil {
		return kernels.Workload{}, err
	}
	a := am.ToCSC()
	switch s.Kernel {
	case "spmspm":
		_, w, err := kernels.SpMSpM(a, am.ToCSR(), corpusChip.NGPE(), corpusChip.Tiles)
		return w, err
	case "spmspv":
		x := matrix.RandomVec(rand.New(rand.NewSource(s.Seed+100)), a.Cols, 0.5)
		_, w, err := kernels.SpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
		return w, err
	default:
		return kernels.Workload{}, fmt.Errorf("verify: unknown kernel %q", s.Kernel)
	}
}

// Source builds the scenario's kernel source (deterministic in Seed): the
// variant cache behind runs over the widened dataflow/format/scheduling
// action space.
func (s Scenario) Source() (*kernels.Source, error) {
	am, err := buildMatrix(s)
	if err != nil {
		return nil, err
	}
	a := am.ToCSC()
	switch s.Kernel {
	case "spmspm":
		return kernels.NewSpMSpMSource(s.Name, a, am.ToCSR(), corpusChip.NGPE(), corpusChip.Tiles), nil
	case "spmspv":
		x := matrix.RandomVec(rand.New(rand.NewSource(s.Seed+100)), a.Cols, 0.5)
		return kernels.NewSpMSpVSource(s.Name, a, x, corpusChip.NGPE(), corpusChip.Tiles), nil
	default:
		return nil, fmt.Errorf("verify: unknown kernel %q", s.Kernel)
	}
}

// corpusModels lazily trains the deterministic tiny models the controller
// scenarios run under, one per telemetry window length. The sweep is fixed
// — independent of experiment scales — so the decision sequences in golden
// files only move when the trainer, ml, sim or power layers change
// behavior, which is the point.
var corpusModels = struct {
	mu  sync.Mutex
	ens map[int]*core.Ensemble
}{ens: map[int]*core.Ensemble{}}

// Model returns the corpus controller model (trained once per process).
func Model() (*core.Ensemble, error) { return historyModel(1) }

// historyModel returns the corpus model over an h-epoch telemetry window.
func historyModel(h int) (*core.Ensemble, error) {
	corpusModels.mu.Lock()
	defer corpusModels.mu.Unlock()
	if ens, ok := corpusModels.ens[h]; ok {
		return ens, nil
	}
	sw := trainer.SweepSpec{
		Kernel: "spmspv", L1Type: config.CacheMode,
		Dims: []int{32, 64}, Densities: []float64{0.02, 0.08},
		BandwidthsGBps: []float64{0.5, 2},
		K:              4, Seed: 9, Chip: corpusChip,
		EpochScale: 0.05, Warmup: 1, Measure: h,
	}
	ds, err := trainer.GenerateEngine(context.Background(), nil, sw, power.EnergyEfficient, h)
	if err != nil {
		return nil, fmt.Errorf("verify: training corpus model: %w", err)
	}
	ens, err := trainer.Train(ds, ml.TreeParams{
		Criterion: ml.Gini, MaxDepth: 6, MinSamplesLeaf: 3,
	})
	if err != nil {
		return nil, err
	}
	corpusModels.ens[h] = ens
	return ens, nil
}

// EpochOutcome is one epoch of a scenario run, in the exact form the golden
// digests are computed over.
type EpochOutcome struct {
	Config       config.Config
	Reconfigured bool
	Result       sim.EpochResult
}

// RunOutcome is a full scenario execution.
type RunOutcome struct {
	Scenario Scenario
	Total    power.Metrics
	Epochs   []EpochOutcome
	Reconfig int
}

// Run executes the scenario and returns every epoch's outcome. Schedule
// and source-controller runs go through the scenario's kernel source on the
// work-aligned epoch grid (sim.Trace.EpochsN anchored to the natural
// variant), so schedules that cross the dataflow/format/scheduling axes
// rebind onto the matching variant trace mid-run; schedules that stay on
// one algorithm point replay a single variant end to end. Model-driven
// schedules run on the natural workload's own grid.
func Run(s Scenario) (*RunOutcome, error) {
	var (
		res core.RunResult
		err error
	)
	if sch, ok := s.Schedule.(modelSchedule); ok {
		res, err = runModelDriven(s, sch)
	} else {
		res, err = runSource(s)
	}
	if err != nil {
		return nil, fmt.Errorf("verify: scenario %s: %w", s.Name, err)
	}
	return outcome(s, res), nil
}

// runSource drives the scenario's kernel source under its schedule, or
// under core.Controller over the full widened action space for a
// controller schedule.
func runSource(s Scenario) (core.RunResult, error) {
	src, err := s.Source()
	if err != nil {
		return core.RunResult{}, err
	}
	var step core.Step = core.Schedule(s.Schedule.Next)
	if _, isCtl := s.Schedule.(controllerSchedule); isCtl {
		ens, err := Model()
		if err != nil {
			return core.RunResult{}, err
		}
		step = core.NewController(ens, core.Options{
			Policy: core.Hybrid, Tolerance: 0.4, EpochScale: s.EpochScale,
		})
	}
	m := sim.New(corpusChip, corpusBW, s.Schedule.Start())
	return core.Drive(context.Background(), m, core.OnSource(src, s.EpochScale), step)
}

// outcome converts a controller run into the golden outcome form.
func outcome(s Scenario, res core.RunResult) *RunOutcome {
	out := &RunOutcome{Scenario: s, Total: res.Total, Reconfig: res.Reconfig}
	for _, ep := range res.Epochs {
		out.Epochs = append(out.Epochs, EpochOutcome{
			Config:       ep.Config,
			Reconfigured: ep.Reconfigured,
			Result: sim.EpochResult{
				Metrics: ep.Metrics, Counters: ep.Counters, Phase: ep.Phase,
			},
		})
	}
	return out
}

// runModelDriven runs a model schedule on the scenario's natural workload.
func runModelDriven(s Scenario, sch modelSchedule) (core.RunResult, error) {
	w, err := s.Workload()
	if err != nil {
		return core.RunResult{}, err
	}
	opts := core.Options{Policy: core.Hybrid, Tolerance: 0.4, EpochScale: s.EpochScale}
	if sch.faults != "" {
		return runResilient(w, opts, sch)
	}
	ens, err := historyModel(max(sch.h, 1))
	if err != nil {
		return core.RunResult{}, err
	}
	m := sim.New(corpusChip, corpusBW, sch.Start())
	if sch.h > 1 {
		return core.NewHistoryController(ens, opts, sch.h).Run(m, w), nil
	}
	return core.NewController(ens, opts).Run(m, w), nil
}

// runResilient runs the resilient controller under the schedule's fault
// spec. A resume schedule stops after resumeAt epochs with a checkpoint,
// then resumes from it on a fresh machine with a fresh injector.
func runResilient(w kernels.Workload, opts core.Options, sch modelSchedule) (core.RunResult, error) {
	ens, err := Model()
	if err != nil {
		return core.RunResult{}, err
	}
	spec, err := fault.ParseSpec(sch.faults)
	if err != nil {
		return core.RunResult{}, err
	}
	ropts := core.DefaultResilientOptions()
	ropts.Options = opts
	ropts.Policy = core.Aggressive
	ropts.DegradeEpochs, ropts.CooldownEpochs, ropts.DegradeFactor = 2, 4, 1.5
	ctl := func() *core.ResilientController {
		c := core.NewResilientController(ens, ropts)
		c.Inject = fault.New(spec)
		return c
	}
	fresh := func() *sim.Machine { return sim.New(corpusChip, corpusBW, sch.Start()) }
	if sch.resumeAt == 0 {
		return ctl().Run(context.Background(), fresh(), w)
	}
	dir, err := os.MkdirTemp("", "verify-resume-")
	if err != nil {
		return core.RunResult{}, err
	}
	defer os.RemoveAll(dir)
	ropts.CheckpointPath = filepath.Join(dir, "run.ck")
	ropts.CheckpointEvery = sch.resumeAt
	ropts.StopAfter = sch.resumeAt
	if _, err := ctl().Run(context.Background(), fresh(), w); err != nil {
		return core.RunResult{}, err
	}
	ck, err := core.LoadCheckpoint(ropts.CheckpointPath)
	if err != nil {
		return core.RunResult{}, err
	}
	ropts.CheckpointPath, ropts.StopAfter = "", 0
	return ctl().Resume(context.Background(), fresh(), w, ck)
}
