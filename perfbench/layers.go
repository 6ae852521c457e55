package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/engine"
	"sparseadapt/internal/experiments"
	"sparseadapt/internal/graph"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/ml"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/store"
	"sparseadapt/internal/sim"
	"sparseadapt/internal/trainer"
)

// The traced run times the benchmark's own calls into each layer's public
// functions, on the workload's inputs. Nothing inside the programs is
// instrumented.

// layerInput is one (kernel, matrix, scale) whose workload the traced run
// builds and replays.
type layerInput struct{ kernel, matrix, scale string }

func (in layerInput) String() string { return in.kernel + "/" + in.matrix + "/" + in.scale }

// inputOf is the workload a daemon request builds.
func inputOf(r server.JobRequest) layerInput {
	return layerInput{kernel: r.Kernel, matrix: r.Matrix, scale: r.Scale}
}

// scaleNamed is the experiment scale the daemon and CLI use for a name.
func scaleNamed(name string, seed int64) experiments.Scale {
	sc := experiments.TestScale()
	if name == "small" {
		sc = experiments.SmallScale()
	}
	sc.Seed = seed
	return sc
}

// defaultSeed is the simulation seed of requests that carry none.
var defaultSeed = experiments.TestScale().Seed

// buildInput generates the input's matrix and builds its kernel trace the
// way the daemon does, timing both.
func buildInput(tr *tracer, in layerInput, sc experiments.Scale) (kernels.Workload, error) {
	root := tr.begin("probe.build", in.String(), 0)
	var am *matrix.COO
	err := tr.timed("matrix.generate", in.String(), root, func() error {
		entry, err := matrix.Entry(in.matrix)
		if err == nil {
			am = entry.Generate(sc.Matrix, sc.Seed)
		}
		return err
	})
	var w kernels.Workload
	if err == nil {
		a := am.ToCSC()
		n, t := sc.Chip.NGPE(), sc.Chip.Tiles
		err = tr.timed("kernels.trace_build", in.String(), root, func() error {
			var err error
			switch in.kernel {
			case "spmspm":
				_, w, err = kernels.SpMSpM(a, am.ToCSR().Transpose(), n, t)
			case "spmspv":
				x := matrix.RandomVec(rand.New(rand.NewSource(sc.Seed+1)), a.Cols, 0.5)
				_, w, err = kernels.SpMSpV(a, x, n, t)
			case "bfs":
				_, w, err = graph.BFS(a, 0, n, t)
			case "sssp":
				_, w, err = graph.SSSP(a, 0, n, t)
			default:
				err = fmt.Errorf("unknown kernel %q", in.kernel)
			}
			return err
		})
	}
	tr.end(root, err)
	return w, err
}

// spanMS is the mean duration in ms of the named spans.
func spanMS(tr *tracer, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	total, n := 0.0, 0
	for _, s := range tr.spans {
		if s.Name == name {
			total += ms(s.End.Sub(s.Start))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// probeLayers measures the in-process layers on the workload's inputs:
// inputs are the distinct workloads to build, replays is the request
// sequence whose replays go through one memo, and sweepScale names the
// scale of the training sweeps. cached is a daemon job result to time the
// engine's cache-hit path on.
func probeLayers(ctx context.Context, e *env, rep *report, tr *tracer, inputs, replays []layerInput, sweepScale string, cached server.JobResult) error {
	built := map[layerInput]kernels.Workload{}
	events, fpTotal, replayNS, replayEvents := 0, 0.0, 0.0, 0
	for _, in := range inputs {
		sc := scaleNamed(in.scale, defaultSeed)
		w, err := buildInput(tr, in, sc)
		if err != nil {
			return fmt.Errorf("building %s: %w", in, err)
		}
		built[in] = w
		events += len(w.Trace.Events)
		t0 := time.Now()
		tr.timed("sim.fingerprint", in.String(), 0, func() error { _ = w.Trace.Fingerprint(); return nil })
		fpTotal += time.Since(t0).Seconds()
		eps := w.Epochs(sc.Epoch)
		t0 = time.Now()
		err = tr.timed("sim.replay", in.String(), 0, func() error {
			_, err := sim.RunEpochs(ctx, nil, sc.Chip, sc.BW, config.Baseline, w.Trace, eps)
			return err
		})
		if err != nil {
			return err
		}
		replayNS += float64(time.Since(t0).Nanoseconds())
		for _, ep := range eps {
			replayEvents += ep.End - ep.Start
		}
	}
	rep.set("matrix.generate_ms", "ms", spanMS(tr, "matrix.generate"))
	rep.set("kernels.trace_build_ms", "ms", spanMS(tr, "kernels.trace_build"))
	rep.set("kernels.trace_events", "count", float64(events)/float64(len(inputs)))
	rep.set("sim.fingerprint_us", "us", fpTotal*1e6/float64(len(inputs)))
	rep.set("sim.replay_ns_per_event", "ns", replayNS/float64(max(replayEvents, 1)))

	memo := sim.NewRunMemo(0)
	for _, in := range replays {
		w, ok := built[in]
		if !ok {
			continue
		}
		sc := scaleNamed(in.scale, defaultSeed)
		err := tr.timed("sim.memo_replay", in.String(), 0, func() error {
			_, err := sim.RunEpochs(ctx, memo, sc.Chip, sc.BW, config.Baseline, w.Trace, w.Epochs(sc.Epoch))
			return err
		})
		if err != nil {
			return err
		}
	}
	hits, misses := memo.Counts()
	rep.set("sim.memo_hit_ratio", "ratio", ratio(hits, misses))

	sc := scaleNamed(sweepScale, defaultSeed)
	rng := rand.New(rand.NewSource(e.seed))
	kTrain := trainer.DefaultSweep("spmspv", config.CacheMode, sc.Train).K
	const samples = 50
	t0 := time.Now()
	tr.timed("config.sample", "config.sample", 0, func() error {
		for i := 0; i < samples; i++ {
			config.Sample(rng, kTrain, config.CacheMode)
			config.Sample(rng, sc.OracleSamples, config.CacheMode)
		}
		return nil
	})
	rep.set("config.sample_us", "us", time.Since(t0).Seconds()*1e6/(2*samples))

	ens, err := probeTraining(ctx, rep, tr, sc)
	if err != nil {
		return err
	}
	if err := probeControl(rep, tr, built, ens); err != nil {
		return err
	}
	if err := probeOracle(ctx, rep, tr, inputs, built); err != nil {
		return err
	}
	if err := probeCacheHit(ctx, rep, tr, cached); err != nil {
		return err
	}
	return probeStore(e, rep, tr)
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// probeTraining generates the training sweep of every (kernel, mode) model
// at sc on one engine with a fresh cache, then trains each CART ensemble.
// It returns the energy-efficient ensemble per kernel.
func probeTraining(ctx context.Context, rep *report, tr *tracer, sc experiments.Scale) (map[string]*core.Ensemble, error) {
	cache, err := engine.NewCache(4096, "")
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{Cache: cache})
	ens := map[string]*core.Ensemble{}
	var sweepS, cartMS float64
	n := 0
	for _, k := range []string{"spmspm", "spmspv"} {
		for _, mode := range []power.Mode{power.EnergyEfficient, power.PowerPerformance} {
			label := fmt.Sprintf("%s/%v", k, mode)
			sw := trainer.DefaultSweep(k, config.CacheMode, sc.Train)
			sw.Chip = sc.Chip
			sw.Seed = sc.Seed
			var ds *trainer.Dataset
			t0 := time.Now()
			err := tr.timed("trainer.sweep", label, 0, func() error {
				var err error
				ds, err = trainer.GenerateEngine(ctx, eng, sw, mode, 1)
				return err
			})
			if err != nil {
				return nil, err
			}
			sweepS += time.Since(t0).Seconds()
			var m *core.Ensemble
			t0 = time.Now()
			err = tr.timed("ml.cart_train", label, 0, func() error {
				var err error
				m, err = trainer.Train(ds, ml.DefaultTreeParams())
				return err
			})
			if err != nil {
				return nil, err
			}
			cartMS += ms(time.Since(t0))
			if mode == power.EnergyEfficient {
				ens[k] = m
			}
			n++
		}
	}
	hits, misses, _ := cache.Counts()
	rep.set("trainer.sweep_s", "s", sweepS/float64(n))
	rep.set("engine.sweep_hit_ratio", "ratio", ratio(hits, misses))
	rep.set("ml.cart_train_ms", "ms", cartMS/float64(n))
	return ens, nil
}

// probeControl times model prediction and the controller's run against a
// static run of the same workloads.
func probeControl(rep *report, tr *tracer, built map[layerInput]kernels.Workload, ens map[string]*core.Ensemble) error {
	var static, control time.Duration
	var predict time.Duration
	calls := 0
	for in, w := range built {
		model := ens["spmspv"] // graph kernels share the SpMSpV model
		opts := core.Options{Policy: core.Hybrid, Tolerance: 0.4}
		if in.kernel == "spmspm" {
			model = ens["spmspm"]
			opts = core.Options{Policy: core.Conservative}
		}
		sc := scaleNamed(in.scale, defaultSeed)
		opts.EpochScale = sc.Epoch
		var run core.RunResult
		t0 := time.Now()
		tr.timed("core.static", in.String(), 0, func() error {
			run = core.RunStatic(sc.Chip, sc.BW, config.Baseline, w, sc.Epoch)
			return nil
		})
		static += time.Since(t0)
		t0 = time.Now()
		tr.timed("core.control", in.String(), 0, func() error {
			core.NewController(model, opts).Run(sim.New(sc.Chip, sc.BW, config.Baseline), w)
			return nil
		})
		control += time.Since(t0)
		t0 = time.Now()
		tr.timed("core.predict", in.String(), 0, func() error {
			for _, ep := range run.Epochs {
				model.Predict(ep.Config, ep.Counters)
			}
			return nil
		})
		predict += time.Since(t0)
		calls += len(run.Epochs)
	}
	if static <= 0 || calls == 0 {
		return fmt.Errorf("no workloads to control")
	}
	rep.set("core.predict_us", "us", predict.Seconds()*1e6/float64(calls))
	rep.set("core.control_overhead_pct", "%", 100*(control-static).Seconds()/static.Seconds())
	return nil
}

// probeOracle records an oracle over the first input at one worker and at
// one worker per CPU, without a memo or cache.
func probeOracle(ctx context.Context, rep *report, tr *tracer, inputs []layerInput, built map[layerInput]kernels.Workload) error {
	in := inputs[0]
	w := built[in]
	sc := scaleNamed(in.scale, defaultSeed)
	cfgs := oracle.SampleConfigs(rand.New(rand.NewSource(sc.Seed)), sc.OracleSamples, config.CacheMode)
	nproc := runtime.NumCPU()
	// Each width is timed twice, alternating, and keeps its faster time, so
	// a warm-up effect does not favour the width that runs second.
	var t [2]time.Duration
	for rep := 0; rep < 2; rep++ {
		for i, workers := range []int{1, nproc} {
			eng := engine.New(engine.Options{Workers: workers})
			t0 := time.Now()
			err := tr.timed("oracle.record", fmt.Sprintf("%s/workers=%d", in, workers), 0, func() error {
				_, err := oracle.RecordEngineMemo(ctx, eng, nil, sc.Chip, sc.BW, w, sc.Epoch, cfgs)
				return err
			})
			if err != nil {
				return err
			}
			if d := time.Since(t0); rep == 0 || d < t[i] {
				t[i] = d
			}
		}
	}
	rep.set("oracle.record_ms", "ms", ms(t[0]))
	rep.set("engine.parallel_efficiency", "ratio", t[0].Seconds()/(t[1].Seconds()*float64(nproc)))
	return nil
}

// probeCacheHit times single-task engine.Map calls that the cache serves:
// the daemon's path for a repeated request.
func probeCacheHit(ctx context.Context, rep *report, tr *tracer, cached server.JobResult) error {
	cache, err := engine.NewCache(64, "")
	if err != nil {
		return err
	}
	eng := engine.New(engine.Options{Workers: 1, Cache: cache})
	task := []engine.Task[server.JobResult]{{
		Key:     engine.NewHasher("perfbench/cache-hit").Str("probe").Sum(),
		Compute: func(context.Context) (server.JobResult, error) { return cached, nil },
	}}
	if _, err := engine.Map(ctx, eng, task); err != nil {
		return err
	}
	task[0].Compute = func(context.Context) (server.JobResult, error) {
		return server.JobResult{}, fmt.Errorf("cache miss on a cached key")
	}
	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err = tr.timed("engine.cache_hit", "engine.cache_hit", 0, func() error {
		for i := 0; i < n; i++ {
			if _, err := engine.Map(ctx, eng, task); err != nil {
				return err
			}
		}
		return nil
	})
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	rep.set("engine.cache_hit_us", "us", elapsed.Seconds()*1e6/n)
	rep.set("engine.cache_hit_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	return nil
}

// probeStore opens a journal on an empty directory and times appends of a
// job-acceptance record, fsync included.
func probeStore(e *env, rep *report, tr *tracer) error {
	dir, err := os.MkdirTemp(e.work, "store-probe-")
	if err != nil {
		return err
	}
	st, err := store.Open(filepath.Join(dir, "journal"))
	if err != nil {
		return err
	}
	defer st.Close()
	req, err := json.Marshal(server.JobRequest{Mode: "adaptive", Kernel: "spmspv", Matrix: "R04", Scale: "test"})
	if err != nil {
		return err
	}
	const n = 50
	t0 := time.Now()
	err = tr.timed("store.append", "store.append", 0, func() error {
		for i := 0; i < n; i++ {
			rec := store.Record{Type: store.RecAccepted, JobID: fmt.Sprintf("j%d", i), Request: req, Time: time.Now()}
			if err := st.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("store.append_us", "us", time.Since(t0).Seconds()*1e6/n)
	return st.Close()
}

// suiteModel is one model the experiment suite trains.
type suiteModel struct {
	kernel string
	l1     int
	mode   power.Mode
	h      int // telemetry history window
}

// modelsOfSuite are the models the experiment suite trains at its own
// chip size.
func modelsOfSuite() []suiteModel {
	var out []suiteModel
	for _, k := range []string{"spmspm", "spmspv"} {
		for _, l1 := range []int{config.CacheMode, config.SPMMode} {
			for _, mode := range []power.Mode{power.EnergyEfficient, power.PowerPerformance} {
				out = append(out, suiteModel{k, l1, mode, 1})
			}
		}
	}
	for _, h := range []int{2, 4} {
		for _, mode := range []power.Mode{power.EnergyEfficient, power.PowerPerformance} {
			out = append(out, suiteModel{"spmspv", config.CacheMode, mode, h})
		}
	}
	return out
}

// traceExperiments trains the suite's models first and then runs every
// experiment serially in process, timing each. It returns the reports
// rendered as `sparseadapt exp all` prints them and the traced total.
func traceExperiments(rep *report, tr *tracer, sc experiments.Scale) (string, time.Duration, error) {
	cache, err := engine.NewCache(4096, "")
	if err != nil {
		return "", 0, err
	}
	sc.Eng = engine.New(engine.Options{Workers: 1, Cache: cache})
	start := time.Now()
	for _, m := range modelsOfSuite() {
		err := tr.timed("experiments.model", fmt.Sprintf("%s/l1=%d/%v/h=%d", m.kernel, m.l1, m.mode, m.h), 0, func() error {
			_, err := experiments.HistoryModel(sc, m.kernel, m.l1, m.mode, m.h)
			return err
		})
		if err != nil {
			return "", 0, err
		}
	}
	rep.set("experiments.model_train_s", "s", time.Since(start).Seconds())
	var out strings.Builder
	for _, id := range experiments.IDs() {
		ex, err := experiments.Get(id)
		if err != nil {
			return "", 0, err
		}
		var r *experiments.Report
		t0 := time.Now()
		err = tr.timed("experiments.run", id, 0, func() error {
			var err error
			r, err = ex.Run(sc)
			return err
		})
		if err != nil {
			return "", 0, fmt.Errorf("experiment %s: %w", id, err)
		}
		rep.set("experiments.run_ms."+id, "ms", ms(time.Since(t0)))
		out.WriteString(r.String())
		out.WriteString("\n")
	}
	return out.String(), time.Since(start), nil
}

// setDaemonLayers records the daemon-side per-layer metrics of served
// outcomes and the /metrics deltas across them.
func setDaemonLayers(rep *report, outs []outcome, delta metricsDelta) {
	var submit, deliver, queue, exec []float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		submit = append(submit, ms(o.accepted.Sub(o.submitted)))
		deliver = append(deliver, ms(o.done.Sub(o.accepted)))
		queue = append(queue, ms(o.st.StartedAt.Sub(o.st.CreatedAt)))
		exec = append(exec, ms(o.st.FinishedAt.Sub(o.st.StartedAt)))
	}
	rep.set("server.submit_ms", "ms", median(submit))
	rep.set("server.delivery_ms", "ms", median(deliver))
	rep.set("sched.queue_wait_ms", "ms", median(queue))
	rep.set("server.exec_ms", "ms", median(exec))
	rep.set("engine.result_hit_ratio", "ratio", ratio(int64(delta.hits), int64(delta.misses)))
	rep.set("server.rejected", "count", delta.rejected)
	rep.set("server.retries", "count", delta.retries)
}

// cachedResult is a verified daemon result with its epoch stream, the
// payload the engine cache holds for a served job.
func cachedResult(outs []outcome, ok []bool) (server.JobResult, error) {
	for i, o := range outs {
		if ok[i] && o.sse && o.st.Result != nil && len(o.epochs) > 0 {
			r := *o.st.Result
			r.Trace = o.epochs
			return r, nil
		}
	}
	return server.JobResult{}, fmt.Errorf("no verified result with an epoch stream to cache")
}

// finishTrace records the layer table and writes the spans out.
func finishTrace(e *env, rep *report, tr *tracer) error {
	rep.layers = tr.summarize()
	path := filepath.Join(e.root, ".bench_build", "results",
		fmt.Sprintf("%s-seed%d-spans-%d.json", rep.workload, e.seed, time.Now().UnixNano()))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}
