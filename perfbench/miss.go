package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sparseadapt/internal/matrix"
	"sparseadapt/internal/server"
)

// missClients is the closed loop's client count. With one request in
// flight the daemon's job has one of the host's 2 CPUs to itself and the
// other is left for the garbage collector, HTTP and this process. With 2
// clients the 2 CPUs were saturated, and a millisecond-scale job's latency
// then followed the shared host's load. In alternating runs of 5 seeds
// each (3 blocks per run with 2 clients, 2 with 1), the spread of
// latency_p50_ms was 0.085 with 2 clients and 0.040 with 1, and one set
// of ten runs with 2 clients spread 0.29.
const missClients = 1

// missAltEvery makes every this-many-th request carry an alternate seed.
const missAltEvery = 16

// warmJobs trains the default-seed model of every (scale, model kernel,
// opt mode) the serve-miss mix uses — graph kernels share the SpMSpV
// model — and serves the sim.* probes.
func warmJobs() []job {
	out := probeJobs("serve-miss")
	for _, sc := range []string{"test", "small"} {
		for _, k := range []string{"spmspm", "spmspv"} {
			for _, opt := range optNames {
				if sc == "test" && ((k == "spmspm" && opt == "ee") || (k == "spmspv" && opt == "pp")) {
					continue // trained by a probe
				}
				out = append(out, job{sse: true, reqID: fmt.Sprintf("serve-miss-warm-%s-%s-%s", sc, k, opt),
					req: server.JobRequest{Mode: server.ModeAdaptive, Kernel: k, Matrix: "R04", Scale: sc, OptMode: opt}})
			}
		}
	}
	return out
}

// missBlockSeconds is the share of the run length one block of serve-miss
// requests is counted as: a 20s run serves 3 blocks. A block takes about
// 12s to serve with missClients clients on the host the benchmark was
// written for (2 CPUs), so the timed phase of a 20s run lasts about 36s,
// and verifying it on the reference daemons takes about 25s more. Across
// seeds, the spread of latency_p50_ms was 0.15 with 2 blocks per run (ten
// runs) and 0.10 with 3 (five runs).
const missBlockSeconds = 7

// missBlocks is the number of blocks a run of the given length serves.
func missBlocks(d time.Duration) int {
	return max(1, int(math.Round(d.Seconds()/missBlockSeconds)))
}

// missJobs lists one run's requests: the first blocks of a balanced order
// over the request space, so every timed request has a fingerprint the
// daemon has not seen. SpMSpM at small scale on the power-law matrices
// costs seconds where most requests cost milliseconds, and the p90 falls
// where latency climbs steeply, so a run that took a random share of the
// space, or served it in a random order, would let the seed move the
// figures more than any change worth measuring. The order is therefore
// balanced and the same for every seed: each round has every dataset
// matrix once, in a fixed shuffled order, and a block of 8 rounds gives
// each matrix each (kernel, scale) pair once. Every missAltEvery-th
// request carries one of two alternate seeds, whose values the workload
// seed picks. The positions are fixed because the alternate-seed requests
// fail at the time of writing (see README.md): as +Inf latencies in a
// steep tail, a count that varied with the seed moved the p90 by a third.
// Warm-up requests are left out.
func missJobs(seed int64, warm []job, blocks int) []job {
	skip := map[string]bool{}
	for _, j := range warm {
		skip[j.key()] = true
	}
	type combo struct{ kernel, scale, mode, opt string }
	var combos []combo // kernel varies fastest, then scale, mode, opt
	for _, opt := range optNames {
		for _, mode := range modeNames {
			for _, sc := range []string{"test", "small"} {
				for _, k := range kernelNames {
					combos = append(combos, combo{k, sc, mode, opt})
				}
			}
		}
	}
	order := rand.New(rand.NewSource(1))
	alt := [2]int64{100 + 2*(abs(seed)%1000), 101 + 2*(abs(seed)%1000)}
	var out []job
	for round := 0; round < min(8*blocks, len(combos)); round++ {
		for _, m := range order.Perm(len(matrix.Dataset)) {
			c := combos[(round+3*m)%len(combos)]
			r := server.JobRequest{Mode: c.mode, Kernel: c.kernel, Matrix: matrix.Dataset[m].ID, Scale: c.scale, OptMode: c.opt}
			if c.mode == server.ModeResilient {
				r.Faults = faultSpec
			}
			if len(out)%missAltEvery == missAltEvery-1 {
				r.Seed = alt[len(out)/missAltEvery%2]
			}
			j := job{req: r, sse: true, reqID: fmt.Sprintf("serve-miss-%d-%04d", seed, len(out))}
			if r.Seed == 0 && skip[j.key()] {
				continue
			}
			out = append(out, j)
		}
	}
	return out
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// missPhase is serve-miss's timed phase: missClients clients, each
// submitting its next request as soon as the previous result is held,
// until the list is served. It returns the outcomes in submission order
// and the phase's start and end.
func missPhase(ctx context.Context, s *session, tr *tracer, jobs []job) ([]outcome, time.Time, time.Time) {
	start := time.Now()
	outs := serveAll(ctx, s.d.cl, tr, jobs, missClients)
	end := start
	for _, o := range outs {
		if o.done.After(end) {
			end = o.done
		}
	}
	return outs, start, end
}

// runServeMiss is the serve-miss workload.
func runServeMiss(ctx context.Context, e *env, rep *report) error {
	if e.trace {
		return traceServeMiss(ctx, e, rep)
	}
	warm := warmJobs()
	s, err := openSession(ctx, e, nil, warm)
	if err != nil {
		return err
	}
	defer s.d.stop()
	rep.set("setup_s", "s", s.setup)
	var outs []outcome
	var start, end time.Time
	cost, err := measurePhase(ctx, s.d, func() {
		outs, start, end = missPhase(ctx, s, nil, missJobs(e.seed, warm, missBlocks(e.seconds)))
	})
	if err != nil {
		return err
	}
	s.d.stop()
	return reportMiss(ctx, e, rep, s, outs, start, end, cost)
}

// reportMiss verifies a serve-miss phase and records its end-to-end
// metrics.
func reportMiss(ctx context.Context, e *env, rep *report, s *session, outs []outcome, start, end time.Time, cost phaseCost) error {
	all := append(append([]job{}, jobsOf(s.warm)...), jobsOf(outs)...)
	refs, err := references(ctx, e, all)
	if err != nil {
		return err
	}
	wv := verify(s.warm, refs)
	wv.record(rep, "warm-up")
	setServedGains(rep, s.warm, wv.ok)
	v := verify(outs, refs)
	v.record(rep, "timed")

	rep.runs = len(outs)

	ss := make([]sample, len(outs))
	done := 0
	for i, o := range outs {
		ss[i] = sample{start: o.submitted.Sub(start).Seconds(), end: o.done.Sub(start).Seconds(), ok: v.ok[i]}
		if o.err == nil {
			done++
		}
	}
	wall := end.Sub(start).Seconds()
	rep.set("wall_s", "s", wall)
	rep.set("cpu_s", "s", cost.cpu)
	rep.set("max_rss_mb", "MB", cost.peakRSS)
	rep.set("jobs_per_s", "1/s", verifiedRate(ss, wall))
	rep.setLatency(scaled(latencies(ss), 1000))
	rep.set("cpu_ms_per_job", "ms", cost.cpu*1000/float64(max(done, 1)))
	return nil
}

func jobsOf(outs []outcome) []job {
	js := make([]job, len(outs))
	for i, o := range outs {
		js[i] = o.job
	}
	return js
}
