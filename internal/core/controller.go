package core

import (
	"context"
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Policy is the reconfiguration-cost-aware hysteresis scheme of Section
// 4.4, applied per parameter on top of the model's prediction.
type Policy int

const (
	// Conservative never reconfigures parameters whose transition exceeds
	// the fixed super-fine cost (i.e. anything requiring a flush).
	Conservative Policy = iota
	// Aggressive always follows the model's prediction regardless of cost.
	Aggressive
	// Hybrid allows a flushing change only when its estimated time cost is
	// within Tolerance × the previous epoch's elapsed time, penalizing
	// bursts of reconfiguration in short epochs while allowing occasional
	// ones (Section 4.4).
	Hybrid
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Conservative:
		return "conservative"
	case Aggressive:
		return "aggressive"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configure a Controller.
type Options struct {
	Policy Policy
	// Tolerance is the hybrid policy's threshold as a fraction of the
	// previous epoch time (the paper uses 40% for SpMSpV, Section 5.4).
	Tolerance float64
	// EpochScale scales the paper's per-kernel epoch size (1 = paper's 500
	// / 5000 FP-ops per GPE); scaled-down inputs use smaller epochs.
	EpochScale float64
}

// DefaultOptions returns the paper's defaults: hybrid with 40% tolerance.
func DefaultOptions() Options {
	return Options{Policy: Hybrid, Tolerance: 0.4, EpochScale: 1}
}

// KernelOptions returns the paper's default options for a kernel (Section
// 5.4): conservative for SpMSpM, hybrid with 40% tolerance for SpMSpV and
// the graph kernels built on it.
func KernelOptions(kernel string, epochScale float64) Options {
	if kernel == "spmspm" {
		return Options{Policy: Conservative, EpochScale: epochScale}
	}
	return Options{Policy: Hybrid, Tolerance: 0.4, EpochScale: epochScale}
}

// OptionsFor returns the options of one run of kernel: KernelOptions with
// the named policy, when not empty, in place of the default, and then a
// non-zero tolerance when the effective policy is hybrid. A tolerance of 0
// keeps the default's (0.4, or 0 for SpMSpM switched to hybrid).
func OptionsFor(kernel string, epochScale float64, policy string, tolerance float64) (Options, error) {
	opts := KernelOptions(kernel, epochScale)
	if policy != "" {
		p, err := PolicyByName(policy)
		if err != nil {
			return Options{}, err
		}
		opts.Policy = p
	}
	if tolerance != 0 && opts.Policy == Hybrid {
		opts.Tolerance = tolerance
	}
	return opts, nil
}

// PolicyByName parses a policy name (conservative|aggressive|hybrid), the
// inverse of Policy.String.
func PolicyByName(name string) (Policy, error) {
	for _, p := range []Policy{Conservative, Aggressive, Hybrid} {
		if name == p.String() {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (conservative|aggressive|hybrid)", name)
}

// EpochLog records one epoch of a run for analysis and plotting (the
// Figure 1 timeline is built from these).
type EpochLog struct {
	Config   config.Config
	Metrics  power.Metrics
	Counters sim.Counters
	Phase    string
	// Reconfigured reports whether the controller changed configuration
	// entering this epoch.
	Reconfigured bool

	// Resilience annotations, populated by ResilientController runs (all
	// zero under the plain controller). EpochLog stays a comparable struct
	// so deterministic runs can be diffed epoch-by-epoch with ==.

	// Repairs counts telemetry values the sanitizer had to clamp or replace
	// before this epoch's counters reached the model.
	Repairs int
	// TelemetryDropped marks an epoch whose telemetry never arrived; the
	// controller held the current configuration.
	TelemetryDropped bool
	// Degraded marks an epoch whose cost exceeded the watchdog's trailing
	// baseline by more than the configured factor.
	Degraded bool
	// Interference marks an epoch whose cost shift coincided with a
	// tenant-switch boundary on a time-multiplexed fabric: the cold-cache
	// spike is attributed to the co-tenant, not a fault, so it neither
	// counts toward the degraded streak nor pollutes the baseline (see
	// ResilientStepper).
	Interference bool
	// Fallback marks an epoch executed under the safe static fallback
	// configuration rather than model control.
	Fallback bool
}

// RunResult aggregates a full workload execution.
type RunResult struct {
	Total    power.Metrics
	Epochs   []EpochLog
	Reconfig int // number of epochs entered with a configuration change
	// Resilience summarizes fault handling over the run (zero for plain
	// controller and static runs).
	Resilience ResilienceReport
}

// Controller is the SparseAdapt runtime's model step: at every epoch
// boundary Drive runs, it predicts from the epoch's telemetry, filters the
// prediction through the cost policy and reconfigures. A Reconfigure error
// leaves the machine as it was.
type Controller struct {
	Model *Ensemble
	Opts  Options
	// Obs is the optional run observer (nil = observability off).
	Obs *Observer
}

// NewController builds a controller with the given trained model.
func NewController(model *Ensemble, opts Options) *Controller {
	if opts.EpochScale <= 0 {
		opts.EpochScale = 1
	}
	return &Controller{Model: model, Opts: opts}
}

// Observe attaches an observer to the controller and returns it, for
// chaining at construction.
func (c *Controller) Observe(o *Observer) *Controller {
	c.Obs = o
	return c
}

// filter applies the cost-aware policy to the model's prediction, given
// the machine state: it returns the configuration actually applied. nnz is
// the operand nonzero count driving the format-conversion charge of
// algorithmic (dataflow/format) switches; those fall under the same
// cost-gating as flushing changes — conservative never takes them,
// aggressive always does, hybrid when the estimated transition time fits
// within the tolerance of the last epoch's time.
func (o Options) filter(m *sim.Machine, pred config.Config, lastEpochTime float64, dirtyL1, dirtyL2, nnz int) config.Config {
	cur := m.Config()
	out := cur
	for _, p := range config.RuntimeParams {
		if pred[p] == cur[p] {
			continue
		}
		cls := config.TransitionClass(p, cur[p], pred[p])
		switch o.Policy {
		case Aggressive:
			out[p] = pred[p]
		case Conservative:
			if cls == config.SuperFine {
				out[p] = pred[p]
			}
		case Hybrid:
			if cls == config.SuperFine {
				out[p] = pred[p]
				continue
			}
			// Estimate the isolated cost of moving this one parameter.
			probe := cur
			probe[p] = pred[p]
			tCost, _ := sim.TransitionPenalty(m.Chip(), cur, probe, dirtyL1, dirtyL2, nnz, m.Bandwidth())
			if tCost <= o.Tolerance*lastEpochTime {
				out[p] = pred[p]
			}
		}
	}
	return out
}

// choose turns a model prediction into the boundary decision: on a single
// bound trace the algorithm axes are pinned so the prediction only moves
// hardware knobs, then the cost policy filters it. The decision is reported
// to the observer.
func (o Options) choose(b *boundary, pred config.Config) config.Config {
	if b.pin {
		for _, p := range []config.Param{config.Dataflow, config.Format, config.SchedPolicy} {
			pred[p] = b.m.Config()[p]
		}
	}
	next := o.filter(b.m, pred, b.r.Metrics.TimeSec, b.r.DirtyL1, b.r.DirtyL2, b.m.TraceNNZ())
	b.obs.decision(pred, next)
	return next
}

// follow applies the decision for pred; a change the machine refuses
// (a coarse parameter) leaves it in its current configuration.
func (o Options) follow(b *boundary, pred config.Config) {
	from := b.m.Config()
	if next := o.choose(b, pred); next != from {
		if rc, err := b.m.Reconfigure(next); err == nil {
			b.applied(from, next, rc)
		}
	}
}

// Run executes the workload under SparseAdapt control: telemetry,
// inference and reconfiguration at every epoch boundary (Figure 3a). Use
// Drive for cancellation or to run over a kernel source.
func (c *Controller) Run(m *sim.Machine, w kernels.Workload) RunResult {
	res, _ := Drive(context.Background(), m, OnWorkload(w, c.Opts.EpochScale), c)
	return res
}

func (c *Controller) observe(*boundary, *EpochLog) {}
func (c *Controller) observer() *Observer          { return c.Obs }

func (c *Controller) decide(b *boundary) error {
	c.Opts.follow(b, c.Model.Predict(b.m.Config(), b.r.Counters))
	return nil
}

// RunStatic executes the workload under a fixed configuration — the
// non-reconfiguring comparison points of Section 5.3 (Baseline, Best Avg,
// Max Cfg, Ideal Static).
func RunStatic(chip power.Chip, bw float64, cfg config.Config, w kernels.Workload, epochScale float64) RunResult {
	res, _ := Drive(context.Background(), sim.New(chip, bw, cfg), OnWorkload(w, epochScale), Hold(nil))
	return res
}
