package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/fault"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// cancelAfter is a context whose Err turns context.Canceled after n
// checks. Drive checks once before every epoch, so n = k+1 cancels the run
// right after epoch k.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestDriveCancelEveryStep cancels a run of every step kind after epoch k
// and requires exactly the uninterrupted run's first k+1 epoch logs plus
// context.Canceled.
func TestDriveCancelEveryStep(t *testing.T) {
	const k = 2
	w := testWorkload(t, 7)
	rng := rand.New(rand.NewSource(8))
	am := matrix.Uniform(rng, 64, 64, 500)
	src := kernels.NewSpMSpMSource("cancel", am.ToCSC(), am.ToCSR(), chip.NGPE(), chip.Tiles)
	spec, err := fault.ParseSpec("nan=0.2,drop=0.2,wild=0.2,rc-drop=0.3,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	maxModel := constModel(t, config.MaxCfg, power.EnergyEfficient)
	inner := config.Baseline
	inner[config.Dataflow], inner[config.Format] = config.DFInner, config.FmtCSR
	innerModel := constModel(t, inner, power.EnergyEfficient)
	aggressive := Options{Policy: Aggressive, EpochScale: 0.1}
	alternate := Schedule(func(i int, cur config.Config, _ sim.EpochResult) config.Config {
		if i%2 == 0 {
			return config.MaxCfg
		}
		return config.Baseline
	})

	cases := []struct {
		name string
		run  func(ctx context.Context) (RunResult, error)
	}{
		{"hold", func(ctx context.Context) (RunResult, error) {
			return Drive(ctx, sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnWorkload(w, 0.1), Hold(nil))
		}},
		{"schedule", func(ctx context.Context) (RunResult, error) {
			return Drive(ctx, sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnWorkload(w, 0.1), alternate)
		}},
		{"controller-workload", func(ctx context.Context) (RunResult, error) {
			return Drive(ctx, sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnWorkload(w, 0.1), NewController(maxModel, aggressive))
		}},
		{"controller-source", func(ctx context.Context) (RunResult, error) {
			return Drive(ctx, sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnSource(src, 0.02), NewController(innerModel, aggressive))
		}},
		{"history", func(ctx context.Context) (RunResult, error) {
			return Drive(ctx, sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnWorkload(w, 0.1), NewHistoryController(maxModel, aggressive, 2))
		}},
		{"stepper", func(ctx context.Context) (RunResult, error) {
			s := NewResilientStepper(maxModel, ResilientOptions{Options: aggressive})
			return Drive(ctx, sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnWorkload(w, 0.1), s)
		}},
		{"resilient", func(ctx context.Context) (RunResult, error) {
			c := NewResilientController(maxModel, ResilientOptions{Options: aggressive})
			c.Inject = fault.New(spec)
			return c.Run(ctx, sim.New(chip, sim.DefaultBandwidth, config.Baseline), w)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full, err := tc.run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "hold" && full.Reconfig == 0 {
				t.Fatal("the uninterrupted run never reconfigured")
			}
			if len(full.Epochs) <= k+1 {
				t.Fatalf("uninterrupted run has %d epochs, need more than %d", len(full.Epochs), k+1)
			}
			cut, err := tc.run(&cancelAfter{Context: context.Background(), n: k + 1})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}
			if !reflect.DeepEqual(cut.Epochs, full.Epochs[:k+1]) {
				t.Fatalf("cancelled run logged %d epochs that differ from the uninterrupted run's first %d", len(cut.Epochs), k+1)
			}
		})
	}
}

// TestTripToHeldFallbackCounts: a watchdog trip while the machine already
// holds the fallback configuration still reconfigures (a no-op transition)
// and counts, because counts come from the step, not from a config change.
func TestTripToHeldFallbackCounts(t *testing.T) {
	opts := DefaultResilientOptions()
	opts.DegradeEpochs = 2
	s := NewResilientStepper(nil, opts)
	m := sim.New(chip, sim.DefaultBandwidth, opts.Fallback)
	var res RunResult
	var b boundary
	for i, cost := range []float64{1, 1, 1, 10, 10} {
		r := sim.EpochResult{Metrics: power.Metrics{TimeSec: cost, EnergyJ: 1, FPOps: 1}, Counters: midCounters()}
		b = boundary{m: m, i: i, r: r, pin: true, res: &res}
		var log EpochLog
		s.observe(&b, &log)
		if err := s.decide(&b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Report().Fallbacks != 1 {
		t.Fatalf("fallbacks = %d, want one trip", s.Report().Fallbacks)
	}
	if !b.reconfigured || res.Reconfig != 1 || m.Config() != opts.Fallback {
		t.Fatalf("trip to the held fallback: reconfigured=%v count=%d config=%v", b.reconfigured, res.Reconfig, m.Config())
	}
}

// TestFinalDecision: plain steps decide after the final epoch too, and that
// decision counts in Reconfig; a resilient run skips it, so every
// reconfiguration it counts shows as a later epoch's Reconfigured flag.
func TestFinalDecision(t *testing.T) {
	w := testWorkload(t, 7)
	n := len(w.Epochs(0.1))
	slow := config.Baseline
	slow[config.Clock] = 0
	flags := func(res RunResult) int {
		k := 0
		for _, e := range res.Epochs {
			if e.Reconfigured {
				k++
			}
		}
		return k
	}

	atEnd := Schedule(func(i int, cur config.Config, _ sim.EpochResult) config.Config {
		if i == n-1 {
			return slow
		}
		return cur
	})
	res, err := Drive(context.Background(), sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnWorkload(w, 0.1), atEnd)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfig != 1 || flags(res) != 0 {
		t.Fatalf("schedule: %d reconfigs, %d flagged epochs; want the final decision counted (1, 0)", res.Reconfig, flags(res))
	}

	c := NewResilientController(constModel(t, config.Baseline, power.EnergyEfficient),
		ResilientOptions{Options: Options{Policy: Aggressive, EpochScale: 0.1}})
	c.Inject = &rogueInjector{From: n - 1, Bad: slow}
	res, err = c.Run(context.Background(), sim.New(chip, sim.DefaultBandwidth, config.Baseline), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconfig != flags(res) {
		t.Fatalf("resilient: %d reconfigs but %d flagged epochs; the final epoch must not decide", res.Reconfig, flags(res))
	}
}

// TestScheduleReconfigureError: a schedule that asks for a change the
// machine refuses (cache ↔ scratchpad needs recompilation) ends the run
// with the error after the epoch that asked.
func TestScheduleReconfigureError(t *testing.T) {
	w := testWorkload(t, 7)
	toSPM := Schedule(func(int, config.Config, sim.EpochResult) config.Config { return config.BestAvgSPM })
	res, err := Drive(context.Background(), sim.New(chip, sim.DefaultBandwidth, config.Baseline), OnWorkload(w, 0.1), toSPM)
	if err == nil || len(res.Epochs) != 1 {
		t.Fatalf("coarse schedule change: %d epochs, err %v; want 1 epoch and an error", len(res.Epochs), err)
	}
}
