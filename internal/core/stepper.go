package core

import (
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/sim"
)

// ResilientStepper is the resilient decision core: telemetry sanitizing,
// the watchdog with its fallback regime, validated and policy-filtered
// predictions, and verified reconfiguration. Drive runs it as a step (it is
// the decision core of ResilientController, and tenant.Isolated drives a
// tenant's stepper solo); the multi-tenant fabric multiplexer
// (internal/tenant), which interleaves many jobs' epochs on one machine and
// so owns its epoch loop, reports tenant-switch boundaries via NoteSwitch
// and feeds every completed epoch to Step.
//
// The stepper's watchdog is interference-aware: an over-threshold epoch
// that coincides with a tenant-switch boundary is classified as co-tenant
// interference — the cold-cache spike the switch itself caused — rather
// than degradation. An interference epoch does not advance the degraded
// streak, does not enter the healthy baseline window, and does not trip the
// fallback; the model still re-predicts from the epoch's (sanitized)
// telemetry, so control adapts to the post-switch state instead of
// retreating from it. Re-predict, don't fall back.
//
// Model may be nil: the stepper then holds the current configuration and
// runs watchdog classification only, which is how tenants without a trained
// model (or tests that must not pay for training) use it.
type ResilientStepper struct {
	Model *Ensemble
	Opts  ResilientOptions
	// Obs is the optional run observer; epoch records it emits carry the
	// interference classification and the observer's Tenant stamp.
	Obs *Observer

	inject        FaultInjector // set by ResilientController drills
	wd            watchdogState
	inFallback    bool
	reconfigured  bool // Step only: the next epoch enters with a change
	switchPending bool
	epochIdx      int // Step only: the index of the next epoch
	report        ResilienceReport
	// clean and dropped are the epoch's sanitized telemetry and whether it
	// was lost, carried from observe to decide.
	clean   sim.Counters
	dropped bool
}

// NewResilientStepper builds a stepper with normalized options. model may be
// nil (hold configuration, watchdog-only).
func NewResilientStepper(model *Ensemble, opts ResilientOptions) *ResilientStepper {
	return &ResilientStepper{Model: model, Opts: opts.normalize()}
}

// NoteSwitch tells the stepper the next epoch it observes is the first one
// after a tenant switch, so an over-threshold cost there is classified as
// interference instead of degradation.
func (s *ResilientStepper) NoteSwitch() {
	s.switchPending = true
}

// Report returns the resilience summary accumulated so far.
func (s *ResilientStepper) Report() ResilienceReport { return s.report }

// Flush closes the observer's pending epoch record; the multiplexer calls it
// when the tenant's job completes.
func (s *ResilientStepper) Flush() { s.Obs.flush() }

// Step observes one completed epoch and performs the boundary decision for
// the next, exactly as Drive would. It returns the annotated epoch log;
// after Step returns, m.Config() is the configuration the tenant's next
// epoch should run under.
func (s *ResilientStepper) Step(m *sim.Machine, r sim.EpochResult) EpochLog {
	var ledger RunResult // the multiplexer keeps its own
	b := boundary{m: m, i: s.epochIdx, r: r, pin: true, res: &ledger, obs: s.Obs}
	s.epochIdx++
	log := EpochLog{
		Config: m.Config(), Metrics: r.Metrics, Counters: r.Counters,
		Phase: r.Phase, Reconfigured: s.reconfigured,
	}
	s.observe(&b, &log)
	s.Obs.epoch(b.i, log)
	s.decide(&b) //nolint:errcheck // the stepper never fails
	s.reconfigured = b.reconfigured
	return log
}

func (s *ResilientStepper) observer() *Observer { return s.Obs }

// observe runs the telemetry path (injection, drop, sanitizer) and the
// watchdog classification for the epoch just run.
func (s *ResilientStepper) observe(b *boundary, log *EpochLog) {
	log.Fallback = s.inFallback
	obs := b.r.Counters
	s.dropped = false
	if s.inject != nil {
		// PerturbTelemetry always runs so stateful faults stay in step.
		obs, _ = s.inject.PerturbTelemetry(b.i, b.r.Counters)
		s.dropped = s.inject.DropTelemetry(b.i)
	}
	var repairs int
	s.clean, repairs = SanitizeCounters(obs)
	log.Repairs = repairs
	log.TelemetryDropped = s.dropped
	s.report.Repairs += repairs
	if s.dropped {
		s.report.DroppedTelemetry++
	}

	// Watchdog: classify this epoch's cost against the trailing baseline.
	// Fallback epochs feed the baseline too — they run the safe config,
	// which is exactly what "healthy" means here. An over-threshold epoch
	// right after a tenant switch is the co-tenant's cold-cache bill, not a
	// fault — classify, keep the streak and baseline untouched, and let the
	// model re-predict.
	cost := epochCost(b.r.Metrics)
	if base := s.wd.baseline(); s.switchPending && base > 0 && cost > s.Opts.DegradeFactor*base {
		log.Interference = true
		s.report.InterferenceEpochs++
		b.obs.event("interference", map[string]string{"epoch": fmt.Sprintf("%d", b.i)})
	} else {
		log.Degraded = s.wd.observe(cost, s.Opts.DegradeFactor, s.Opts.WatchdogWindow)
		if log.Degraded {
			s.report.DegradedEpochs++
		}
	}
	s.switchPending = false
	if s.inFallback {
		s.report.FallbackEpochs++
	}
}

// decide performs the epoch-boundary control decision: watchdog trips and
// cooldown bookkeeping, or a validated model prediction filtered through
// the reconfiguration-cost policy, then a verified (and retried)
// reconfiguration.
func (s *ResilientStepper) decide(b *boundary) error {
	m := b.m
	// Fallback regime: hold the safe config through the cooldown, then
	// re-arm the model.
	if s.inFallback {
		if !s.wd.Permanent {
			s.wd.Cooldown--
			if s.wd.Cooldown <= 0 {
				s.inFallback = false
				s.wd.Streak = 0
				b.obs.event("fallback-exit", nil)
				return nil // re-armed; model resumes next boundary
			}
		}
		if m.Config() != s.Opts.Fallback {
			s.applyTarget(b, s.Opts.Fallback)
		}
		return nil
	}

	// Watchdog trip: K consecutive degraded epochs retire the model to the
	// fallback config, permanently once the trip budget is spent.
	if s.wd.Streak >= s.Opts.DegradeEpochs {
		s.wd.Trips++
		s.report.Fallbacks++
		s.wd.Streak = 0
		s.wd.Cooldown = s.Opts.CooldownEpochs
		if s.wd.Trips >= s.Opts.MaxTrips {
			s.wd.Permanent = true
			s.report.PermanentFallback = true
		}
		s.inFallback = true
		b.obs.event("watchdog-trip", map[string]string{
			"trips":     fmt.Sprintf("%d", s.wd.Trips),
			"permanent": fmt.Sprintf("%v", s.wd.Permanent),
		})
		s.applyTarget(b, s.Opts.Fallback)
		return nil
	}

	// Model-driven path. Lost telemetry or no model → no decision, hold.
	if s.dropped || s.Model == nil {
		return nil
	}
	pred := s.Model.Predict(m.Config(), s.clean)
	if s.inject != nil {
		pred, _ = s.inject.PerturbPrediction(b.i, pred)
	}
	if !ValidatePrediction(m.Config(), pred) {
		s.report.RejectedPredictions++
		// Raw level indices, not pred.String(): the rejection means the
		// levels are out of range, which String would panic on.
		b.obs.event("rejected-prediction", map[string]string{"pred": fmt.Sprintf("%v", [config.NumParams]int(pred))})
		return nil
	}
	if next := s.Opts.choose(b, pred); next != m.Config() {
		s.applyTarget(b, next)
	}
	return nil
}

// applyTarget reconfigures toward target with verification and retry.
func (s *ResilientStepper) applyTarget(b *boundary, target config.Config) {
	from := b.m.Config()
	ok, retries, cost := s.attemptReconfig(b.m, b.i, target)
	s.report.ReconfigRetries += retries
	if ok {
		b.applied(from, target, cost)
	} else {
		s.report.ReconfigFailures++
		b.obs.event("reconfig-failure", map[string]string{"target": target.String()})
	}
}

// attemptReconfig drives one epoch-boundary reconfiguration with fault
// injection, verification and bounded retry. epoch is the epoch just
// completed (the hash key for injected faults). It returns whether the
// machine ended at target, how many extra attempts were spent, and the
// cost of the reconfiguration that took (zero when none did).
func (s *ResilientStepper) attemptReconfig(m *sim.Machine, epoch int, target config.Config) (ok bool, retries int, cost sim.ReconfigCost) {
	for attempt := 0; attempt <= s.Opts.ReconfigRetries; attempt++ {
		drop, mult := false, 1.0
		if s.inject != nil {
			drop, mult = s.inject.ReconfigFault(epoch, attempt)
		}
		if !drop {
			rc, err := m.Reconfigure(target)
			if err != nil {
				// Unreachable through the policy filter (coarse changes are
				// never predicted), but a corrupt target must not wedge us.
				return false, attempt, cost
			}
			cost = rc
			if mult > 1 {
				m.InjectPenalty(rc.Cycles * (mult - 1))
			}
		}
		// Verify the knobs actually took: a dropped write leaves the old
		// configuration in place and earns another attempt.
		if m.Config() == target {
			return true, attempt, cost
		}
	}
	return m.Config() == target, s.Opts.ReconfigRetries, cost
}
