package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// This file is the resilience layer around the SparseAdapt feedback loop:
// the paper asserts the controller is "no worse than the best static
// config", but the published design trusts its inputs (telemetry counters)
// and outputs (predicted config levels) blindly. ResilientController makes
// that claim hold under failure: corrupt telemetry is sanitized before
// prediction, out-of-range predictions are rejected, a watchdog compares
// per-epoch cost against a trailing baseline and falls back to a known-safe
// static configuration when the model drives the machine off a cliff, knob
// writes are verified and retried, and the whole controller state can be
// checkpointed and resumed after a crash.

// FaultInjector is the hook the fault-injection harness (internal/fault)
// implements. A nil injector means a clean run; the resilience machinery is
// active either way, since real deployments fail without being asked.
type FaultInjector interface {
	// PerturbTelemetry returns the (possibly corrupted) counter frame the
	// controller observes for the epoch, plus the fault classes that fired.
	// It is called once per epoch, in order, including during checkpoint
	// replay, so stateful faults (stuck-at) stay reproducible.
	PerturbTelemetry(epoch int, c sim.Counters) (sim.Counters, []string)
	// DropTelemetry reports whether the epoch's telemetry is lost entirely.
	DropTelemetry(epoch int) bool
	// PerturbPrediction corrupts the model's predicted configuration.
	PerturbPrediction(epoch int, pred config.Config) (config.Config, bool)
	// ReconfigFault reports, for the attempt-th try at an epoch boundary,
	// whether the knob write is silently lost, and the multiplier on its
	// transition cost when it takes (1 = clean).
	ReconfigFault(epoch, attempt int) (drop bool, penaltyMult float64)
}

// counterBounds are the physically-plausible ranges of the Table 2
// telemetry, in Features order. Layer-aggregate rates are bounded by the
// bank count (generously), ratios and utilizations by 1, capacities and
// clock by the Table 1 hardware ranges.
var counterBounds = [sim.NumFeatures][2]float64{
	{0, 64}, {0, 1}, {0, 1}, {0, 16}, {4, 64}, // L1: rate, occ, miss, pref, cap
	{0, 64}, {0, 1}, {0, 1}, {0, 16}, {4, 64}, // L2
	{0, 64}, {0, 64}, // crossbar contention ratios
	{0, 4}, {0, 4}, {0, 4}, {31.25, 1000}, // IPCs, clock
	{0, 1}, {0, 1}, // memory utilization
}

// SanitizeCounters clamps or repairs a telemetry frame before it reaches
// the model: NaNs become the lower bound, infinities and out-of-range
// values clamp into the plausible range. It returns the repaired frame and
// the number of values touched. A frame produced by the machine model is
// always returned unchanged.
func SanitizeCounters(c sim.Counters) (sim.Counters, int) {
	f := c.Features()
	repairs := 0
	for i, v := range f {
		lo, hi := counterBounds[i][0], counterBounds[i][1]
		switch {
		case math.IsNaN(v):
			f[i] = lo
			repairs++
		case v < lo:
			f[i] = lo
			repairs++
		case v > hi: // +Inf clamps here
			f[i] = hi
			repairs++
		}
	}
	if repairs == 0 {
		return c, 0
	}
	return sim.CountersFromFeatures(f), repairs
}

// ValidatePrediction reports whether a predicted configuration is safe to
// apply from cur: every runtime parameter within its cardinality and the
// compile-time L1 type untouched.
func ValidatePrediction(cur, pred config.Config) bool {
	if pred[config.L1Type] != cur[config.L1Type] {
		return false
	}
	for _, p := range config.RuntimeParams {
		if pred[p] < 0 || pred[p] >= config.Cardinality(p) {
			return false
		}
	}
	return true
}

// ResilienceReport summarizes the fault handling of one run.
type ResilienceReport struct {
	// Repairs counts telemetry values the sanitizer clamped or replaced.
	Repairs int `json:"repairs"`
	// DroppedTelemetry counts epochs whose telemetry never arrived.
	DroppedTelemetry int `json:"dropped_telemetry"`
	// RejectedPredictions counts model outputs with out-of-range levels.
	RejectedPredictions int `json:"rejected_predictions"`
	// DegradedEpochs counts epochs over the watchdog's cost threshold.
	DegradedEpochs int `json:"degraded_epochs"`
	// InterferenceEpochs counts over-threshold epochs coincident with a
	// tenant-switch boundary, classified as co-tenant interference rather
	// than degradation (multi-tenant runs only; see ResilientStepper).
	InterferenceEpochs int `json:"interference_epochs,omitempty"`
	// Fallbacks counts watchdog trips into the safe static configuration.
	Fallbacks int `json:"fallbacks"`
	// FallbackEpochs counts epochs executed under the fallback config.
	FallbackEpochs int `json:"fallback_epochs"`
	// PermanentFallback reports whether the trip budget was exhausted and
	// the model was retired for the rest of the run.
	PermanentFallback bool `json:"permanent_fallback"`
	// ReconfigRetries counts extra reconfiguration attempts after a knob
	// write that did not take.
	ReconfigRetries int `json:"reconfig_retries"`
	// ReconfigFailures counts boundaries where the retry budget ran out
	// with the machine still in its old configuration.
	ReconfigFailures int `json:"reconfig_failures"`
	// Checkpoints counts controller checkpoints written.
	Checkpoints int `json:"checkpoints"`
}

// String renders the report as the CLI's resilience summary block.
func (r ResilienceReport) String() string {
	s := fmt.Sprintf(
		"repairs=%d dropped=%d rejected=%d degraded=%d fallbacks=%d fallback-epochs=%d permanent=%v retries=%d reconfig-failures=%d",
		r.Repairs, r.DroppedTelemetry, r.RejectedPredictions, r.DegradedEpochs,
		r.Fallbacks, r.FallbackEpochs, r.PermanentFallback, r.ReconfigRetries, r.ReconfigFailures)
	if r.InterferenceEpochs > 0 {
		s += fmt.Sprintf(" interference=%d", r.InterferenceEpochs)
	}
	return s
}

// ResilientOptions extend the controller options with the watchdog,
// fallback, retry and checkpoint knobs.
type ResilientOptions struct {
	Options
	// Fallback is the best-known static configuration, the safe harbor the
	// watchdog retreats to. The zero value is treated as unset and replaced
	// with config.BestAvgCache.
	Fallback config.Config
	// WatchdogWindow is how many trailing healthy epoch costs form the
	// baseline (default 8).
	WatchdogWindow int
	// DegradeFactor marks an epoch degraded when its cost exceeds
	// DegradeFactor × the baseline median (default 2).
	DegradeFactor float64
	// DegradeEpochs is how many consecutive degraded epochs trip the
	// watchdog into fallback (default 3).
	DegradeEpochs int
	// CooldownEpochs is how long a trip pins the fallback configuration
	// before the model is re-armed (default 12).
	CooldownEpochs int
	// MaxTrips is the trip budget: once exhausted the fallback becomes
	// permanent for the rest of the run (default 3).
	MaxTrips int
	// ReconfigRetries bounds extra attempts for a knob write that did not
	// take (default 2).
	ReconfigRetries int
	// CheckpointPath, when set, makes the controller write its state every
	// CheckpointEvery epochs (default 16) so a crashed run can Resume.
	CheckpointPath  string
	CheckpointEvery int
	// StopAfter halts the run after that many epochs (0 = run to
	// completion). It exists to exercise the crash/resume path
	// deterministically in tests and drills.
	StopAfter int
}

// DefaultResilientOptions returns production-shaped defaults around the
// paper's controller defaults.
func DefaultResilientOptions() ResilientOptions {
	return ResilientOptions{
		Options:         DefaultOptions(),
		Fallback:        config.BestAvgCache,
		WatchdogWindow:  8,
		DegradeFactor:   2,
		DegradeEpochs:   3,
		CooldownEpochs:  12,
		MaxTrips:        3,
		ReconfigRetries: 2,
		CheckpointEvery: 16,
	}
}

// normalize fills unset option fields with defaults.
func (o ResilientOptions) normalize() ResilientOptions {
	d := DefaultResilientOptions()
	if o.EpochScale <= 0 {
		o.EpochScale = 1
	}
	if (o.Fallback == config.Config{}) || !o.Fallback.Valid() {
		o.Fallback = d.Fallback
	}
	if o.WatchdogWindow < 1 {
		o.WatchdogWindow = d.WatchdogWindow
	}
	if o.DegradeFactor <= 1 {
		o.DegradeFactor = d.DegradeFactor
	}
	if o.DegradeEpochs < 1 {
		o.DegradeEpochs = d.DegradeEpochs
	}
	if o.CooldownEpochs < 1 {
		o.CooldownEpochs = d.CooldownEpochs
	}
	if o.MaxTrips < 1 {
		o.MaxTrips = d.MaxTrips
	}
	if o.ReconfigRetries < 0 {
		o.ReconfigRetries = d.ReconfigRetries
	}
	if o.CheckpointEvery < 1 {
		o.CheckpointEvery = d.CheckpointEvery
	}
	return o
}

// watchdogState is the degradation tracker: a trailing window of healthy
// epoch costs, the current degraded streak, and the fallback bookkeeping.
// Exported fields only — it is serialized inside checkpoints.
type watchdogState struct {
	Window    []float64 `json:"window"` // trailing healthy epoch costs
	Streak    int       `json:"streak"`
	Cooldown  int       `json:"cooldown"`
	Trips     int       `json:"trips"`
	Permanent bool      `json:"permanent"`
}

// baseline returns the median of the trailing healthy costs, or 0 when too
// few epochs have been observed to judge.
func (w *watchdogState) baseline() float64 {
	if len(w.Window) < 2 {
		return 0
	}
	s := append([]float64(nil), w.Window...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// observe classifies one epoch cost and updates the streak/window.
func (w *watchdogState) observe(cost float64, factor float64, window int) (degraded bool) {
	if cost <= 0 {
		return false
	}
	if b := w.baseline(); b > 0 && cost > factor*b {
		w.Streak++
		return true
	}
	w.Streak = 0
	w.Window = append(w.Window, cost)
	if len(w.Window) > window {
		w.Window = w.Window[len(w.Window)-window:]
	}
	return false
}

// epochCost is the watchdog's scalar: energy-delay product normalized by
// work squared, so epochs of different FP-op counts compare fairly and
// "degraded" means degraded EDP, the quantity the paper's fallback claim is
// stated in.
func epochCost(m power.Metrics) float64 {
	if m.FPOps <= 0 {
		return 0
	}
	return m.TimeSec * m.EnergyJ / (m.FPOps * m.FPOps)
}

// ResilientController drives the SparseAdapt feedback loop with the full
// resilience layer active. Its decisions are a ResilientStepper's; on top
// it adds fault injection (Inject, optional, for drills and tests),
// checkpointing and resume.
type ResilientController struct {
	Model  *Ensemble
	Opts   ResilientOptions
	Inject FaultInjector
	// Obs is the optional run observer (nil = observability off). Beyond
	// the plain controller's records it captures sanitizer repairs,
	// watchdog trips, fallback transitions and reconfig failures.
	Obs *Observer
}

// NewResilientController builds the controller, normalizing options.
func NewResilientController(model *Ensemble, opts ResilientOptions) *ResilientController {
	return &ResilientController{Model: model, Opts: opts.normalize()}
}

// Observe attaches an observer to the controller and returns it, for
// chaining at construction.
func (c *ResilientController) Observe(o *Observer) *ResilientController {
	c.Obs = o
	return c
}

// Run executes the workload under resilient SparseAdapt control. The
// context is checked at every epoch boundary, as in Drive.
func (c *ResilientController) Run(ctx context.Context, m *sim.Machine, w kernels.Workload) (RunResult, error) {
	return c.run(ctx, m, w, nil)
}

// Resume continues a run from a checkpoint written by a previous Run: the
// machine (freshly constructed at the same start configuration) is
// fast-forwarded by replaying the recorded configuration schedule — no
// model inference — and the control loop continues from the checkpointed
// epoch with identical state, so the epoch log tail matches the
// uninterrupted run exactly.
func (c *ResilientController) Resume(ctx context.Context, m *sim.Machine, w kernels.Workload, ck *Checkpoint) (RunResult, error) {
	if ck == nil {
		return RunResult{}, fmt.Errorf("core: nil checkpoint")
	}
	return c.run(ctx, m, w, ck)
}

func (c *ResilientController) run(ctx context.Context, m *sim.Machine, w kernels.Workload, ck *Checkpoint) (RunResult, error) {
	if c.Model == nil {
		return RunResult{}, fmt.Errorf("core: resilient controller has no model")
	}
	s := NewResilientStepper(c.Model, c.Opts)
	s.Obs, s.inject = c.Obs, c.Inject
	in := OnWorkload(w, s.Opts.EpochScale)
	if ck != nil {
		if ck.Epoch > len(in.eps) {
			return RunResult{}, fmt.Errorf("core: checkpoint at epoch %d exceeds workload's %d epochs", ck.Epoch, len(in.eps))
		}
		if m.Config() != ck.Start {
			return RunResult{}, fmt.Errorf("core: machine starts at %v, checkpoint recorded %v", m.Config(), ck.Start)
		}
		s.wd, s.inFallback, s.report = ck.Watchdog, ck.InFallback, ck.Report
	}
	res, err := Drive(ctx, m, in, &resilientRun{s: s, ck: ck})
	res.Resilience = s.report
	return res, err
}

// resilientRun is the Drive step of a ResilientController run: the
// stepper's decisions (none after the final epoch), checkpoint writes,
// StopAfter and, when resuming, the replay of the checkpointed prefix.
type resilientRun struct {
	s  *ResilientStepper
	ck *Checkpoint // prefix still to replay; nil once the run is live
}

// observer is nil during the replayed prefix: the original run observed it.
func (r *resilientRun) observer() *Observer {
	if r.ck != nil {
		return nil
	}
	return r.s.Obs
}

func (r *resilientRun) observe(b *boundary, log *EpochLog) {
	if r.ck == nil {
		r.s.observe(b, log)
		return
	}
	// Telemetry injection replays too: stuck-at faults reference the
	// previous true frame, so the injector's state advances epoch by epoch
	// exactly as it did originally.
	if r.s.inject != nil {
		r.s.inject.PerturbTelemetry(b.i, b.r.Counters)
	}
	*log = r.ck.Epochs[b.i]
}

func (r *resilientRun) decide(b *boundary) error {
	if r.ck != nil {
		return r.replay(b)
	}
	if !b.last {
		r.s.decide(b) //nolint:errcheck // the stepper never fails
	}
	done, opts := b.i+1, r.s.Opts
	if opts.CheckpointPath != "" && (done%opts.CheckpointEvery == 0 || b.last) {
		if err := r.writeCheckpoint(b, done); err != nil {
			return fmt.Errorf("core: checkpoint at epoch %d: %w", done, err)
		}
		r.s.report.Checkpoints++
		b.obs.event("checkpoint", map[string]string{"epoch": fmt.Sprintf("%d", done)})
	}
	if opts.StopAfter > 0 && done >= opts.StopAfter {
		return errStop
	}
	return nil
}

// replay re-applies the checkpointed reconfiguration at the boundary after
// prefix epoch j through the same fault-injected protocol (same hash keys,
// so the same drops and penalties), rebuilding the exact microarchitectural
// and pending-cost state the original run had, and checks the machine
// follows the recorded schedule.
func (r *resilientRun) replay(b *boundary) error {
	j, ck := b.i, r.ck
	want, reconfigured := ck.Next, ck.Reconfigured
	if j+1 < ck.Epoch {
		want, reconfigured = ck.Epochs[j+1].Config, ck.Epochs[j+1].Reconfigured
	}
	if reconfigured {
		from := b.m.Config()
		if ok, _, cost := r.s.attemptReconfig(b.m, j, want); ok {
			b.applied(from, want, cost)
		}
	}
	if b.m.Config() != want {
		return fmt.Errorf("core: replay diverged after epoch %d: machine %v, recorded %v", j, b.m.Config(), want)
	}
	if j+1 == ck.Epoch {
		r.ck = nil
	}
	return nil
}
