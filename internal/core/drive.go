package core

import (
	"context"
	"errors"
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/sim"
)

// Input is what Drive executes: one bound trace on a fixed epoch grid, or a
// kernel source whose variant traces share the natural variant's
// work-aligned grid. Build one with OnTrace, OnWorkload or OnSource.
type Input struct {
	tr    *sim.Trace
	eps   []sim.EpochRange
	src   *kernels.Source
	scale float64
}

// OnTrace runs tr on the given epoch grid. A single bound trace cannot
// change execution strategy, so model steps pin the algorithm axes
// (dataflow, format, scheduling) and only move hardware knobs.
func OnTrace(tr *sim.Trace, eps []sim.EpochRange) Input {
	return Input{tr: tr, eps: eps}
}

// OnWorkload runs w on its own w.Epochs(epochScale) grid (see OnTrace).
func OnWorkload(w kernels.Workload, epochScale float64) Input {
	return OnTrace(w.Trace, w.Epochs(epochScale))
}

// OnSource runs a kernel over the full widened action space. The grid size
// is anchored to the natural variant so every variant splits into the same
// number of work-aligned epochs (sim.Trace.EpochsN); when a step switches
// the dataflow, storage format or scheduling policy, Drive rebinds the
// machine to that variant's trace and resumes at the same work-fraction
// epoch. An algorithmic switch flushes both cache levels and charges the
// conversion cost, so no stale working set survives the rebind.
func OnSource(src *kernels.Source, epochScale float64) Input {
	return Input{src: src, scale: epochScale}
}

// Step is one control policy. After every epoch Drive asks the step to
// annotate the epoch's log, reports the log to the step's observer, and
// then asks the step for the boundary decision that sets the next epoch's
// configuration. The steps are Hold, Schedule, *Controller,
// *HistoryController and *ResilientStepper.
type Step interface {
	// observe annotates the log of the epoch just run (resilience
	// classification); Drive has filled in the machine's view.
	observe(b *boundary, log *EpochLog)
	// decide moves the machine toward the next epoch's configuration,
	// recording every reconfiguration it applies through b.applied.
	decide(b *boundary) error
	// observer is the run observer (nil = observability off).
	observer() *Observer
}

// boundary is one epoch boundary as Drive hands it to a step.
type boundary struct {
	m    *sim.Machine
	i    int // the epoch just run
	r    sim.EpochResult
	last bool // i is the final epoch
	pin  bool // single bound trace: the algorithm axes cannot move
	res  *RunResult
	obs  *Observer

	reconfigured bool
}

// applied records a reconfiguration a step made at this boundary: it counts
// in RunResult.Reconfig, marks the next epoch Reconfigured and is reported
// to the observer. Counts come from the step, not from a config change, so
// a reconfiguration to the configuration the machine already holds counts.
func (b *boundary) applied(from, to config.Config, rc sim.ReconfigCost) {
	b.res.Reconfig++
	b.reconfigured = true
	b.obs.reconfig(from, to, rc)
}

// errStop is returned by a step's decide to end the run after the current
// epoch without error (ResilientOptions.StopAfter).
var errStop = errors.New("core: stop")

// Drive runs the SparseAdapt feedback loop (Figure 3a) on m: replay an
// epoch, read its telemetry, let the step decide and reconfigure, repeat.
// Every controlled execution in the repository runs through it. The context
// is checked at every epoch boundary; a cancelled or expired context stops
// the run there and returns the epochs completed so far with the context's
// error. The step's observer sees each epoch, then the boundary decision,
// then the reconfiguration, and is flushed on every return.
func Drive(ctx context.Context, m *sim.Machine, in Input, step Step) (RunResult, error) {
	var res RunResult
	n, eps, err := in.bind(m)
	if err != nil {
		return res, err
	}
	entered := false
	// len(eps) < n only when a variant trace has fewer FP ops than grid
	// epochs (degenerate tiny traces).
	for i := 0; i < n && i < len(eps); i++ {
		if err = ctx.Err(); err != nil {
			break
		}
		r := m.RunEpoch(eps[i])
		res.Total.Add(r.Metrics)
		b := boundary{
			m: m, i: i, r: r, last: i+1 == n || i+1 == len(eps),
			pin: in.src == nil, res: &res, obs: step.observer(),
		}
		log := EpochLog{
			Config: m.Config(), Metrics: r.Metrics, Counters: r.Counters,
			Phase: r.Phase, Reconfigured: entered,
		}
		step.observe(&b, &log)
		res.Epochs = append(res.Epochs, log)
		b.obs.epoch(i, log)
		from := m.Config()
		if err = step.decide(&b); err != nil {
			if errors.Is(err, errStop) {
				err = nil
			}
			break
		}
		entered = b.reconfigured
		if in.src != nil && in.src.Key(kernels.AlgoOf(from)) != in.src.Key(kernels.AlgoOf(m.Config())) {
			var w kernels.Workload
			if w, err = in.src.Variant(m.Config()); err != nil {
				break
			}
			m.BindTrace(w.Trace)
			eps = w.Trace.EpochsN(n)
		}
	}
	step.observer().flush()
	return res, err
}

// bind binds the machine to the input's starting trace and returns the grid
// size and the epochs to replay.
func (in Input) bind(m *sim.Machine) (int, []sim.EpochRange, error) {
	if in.src == nil {
		m.BindTrace(in.tr)
		return len(in.eps), in.eps, nil
	}
	n, _, err := in.src.GridEpochs(in.scale)
	if err != nil {
		return 0, nil, err
	}
	w, err := in.src.Variant(m.Config())
	if err != nil {
		return 0, nil, err
	}
	m.BindTrace(w.Trace)
	return n, w.Trace.EpochsN(n), nil
}

// hold is the static step: the machine keeps its configuration.
type hold struct{ obs *Observer }

// Hold returns the static step — the non-reconfiguring comparison points of
// Section 5.3 — reporting epochs to o (nil = unobserved).
func Hold(o *Observer) Step { return hold{o} }

func (hold) observe(*boundary, *EpochLog) {}
func (hold) decide(*boundary) error       { return nil }
func (h hold) observer() *Observer        { return h.obs }

// Schedule is a fixed configuration schedule: after epoch i, with the
// machine in cur, it returns the configuration to enter epoch i+1 with (cur
// to hold). A Reconfigure error ends the run.
type Schedule func(i int, cur config.Config, r sim.EpochResult) config.Config

func (Schedule) observe(*boundary, *EpochLog) {}
func (Schedule) observer() *Observer          { return nil }

func (s Schedule) decide(b *boundary) error {
	cur := b.m.Config()
	next := s(b.i, cur, b.r)
	if next == cur {
		return nil
	}
	rc, err := b.m.Reconfigure(next)
	if err != nil {
		return fmt.Errorf("core: epoch %d: %w", b.i, err)
	}
	b.applied(cur, next, rc)
	return nil
}
