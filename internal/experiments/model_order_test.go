package experiments

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// modelProbe returns (configuration, telemetry) pairs from real replays of
// an SpMSpV workload under a few sampled configurations, for comparing
// ensembles by their predictions.
func modelProbe(t *testing.T, sc Scale) (cfgs []config.Config, tel []sim.Counters) {
	t.Helper()
	w, err := buildSpMSpV(sc, "R04")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range config.Sample(rand.New(rand.NewSource(1)), 6, config.CacheMode) {
		row, err := sim.RunEpochs(context.Background(), nil, sc.Chip, sc.BW, cfg, w.Trace, w.Epochs(sc.Epoch))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range row {
			cfgs, tel = append(cfgs, cfg), append(tel, r.Counters)
		}
	}
	return cfgs, tel
}

// TestModelIndependentOfRequestOrder trains the same mixed-seed model
// requests in two orders, each from an empty model cache, and requires
// every seed's ensemble to predict the same either way: a model depends
// only on its request, not on what the process trained before.
func TestModelIndependentOfRequestOrder(t *testing.T) {
	cfgs, tel := modelProbe(t, TestScale())
	run := func(seeds ...int64) map[int64][]config.Config {
		modelMu.Lock()
		modelCache = map[modelKey]*core.Ensemble{}
		modelMu.Unlock()
		out := map[int64][]config.Config{}
		for _, seed := range seeds {
			sc := TestScale()
			sc.Seed = seed
			ens, err := Model(sc, "spmspv", config.CacheMode, power.EnergyEfficient)
			if err != nil {
				t.Fatal(err)
			}
			for i := range cfgs {
				out[seed] = append(out[seed], ens.Predict(cfgs[i], tel[i]))
			}
		}
		return out
	}
	a, b := run(42, 7), run(7, 42)
	for _, seed := range []int64{42, 7} {
		if !reflect.DeepEqual(a[seed], b[seed]) {
			t.Fatalf("seed %d: the model's predictions depend on which seed was trained first", seed)
		}
	}
	if reflect.DeepEqual(a[42], a[7]) {
		t.Fatal("the probe cannot tell the two seeds' models apart")
	}
}
