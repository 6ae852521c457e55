package main

import (
	"context"
)

// The traced runs. Each records spans around its calls, reports the
// per-layer metrics on its workload's inputs and the tracing overhead,
// and checks its outputs like the untraced run does.

// traceExp is exp-small's traced run: one untraced `exp all` child for
// comparison, then the suite in process, serially, models first, with a
// span per model and per experiment. Its reports must match the child's
// output byte for byte. The overhead compares the traced serial total with
// the child's CPU time, since serial wall time is CPU time.
func traceExp(ctx context.Context, e *env, rep *report) error {
	out, st, err := expAll(ctx, e, 0)
	if err != nil {
		return err
	}
	rep.count(1, 0)
	if msg := out.check(); msg != "" {
		rep.count(0, 1)
		rep.invalid("exp all: %s", msg)
	}
	tr := &tracer{}
	sc := scaleNamed("small", e.seed)
	text, total, err := traceExperiments(rep, tr, sc)
	if err != nil {
		return err
	}
	rep.count(1, 0)
	if text != string(out.stdout) {
		rep.count(0, 1)
		rep.invalid("in-process reports differ from `sparseadapt exp all` at the same seed")
	}
	rep.runs = 2
	rep.set("trace.overhead_pct", "%", 100*(total.Seconds()-st.cpu.Seconds())/st.cpu.Seconds())

	// The daemon layers, which exp-small does not use, are measured on a
	// daemon serving the sim.* probes once (misses) and again (hits).
	probes := probeJobs("exp-small")
	s, err := openSession(ctx, e, tr, probes)
	if err != nil {
		return err
	}
	defer s.d.stop()
	again := make([]job, len(probes))
	for i, j := range probes {
		j.sse = i%2 == 0
		j.reqID += "-again"
		again[i] = j
	}
	var outs []outcome
	cost, err := measurePhase(ctx, s.d, func() { outs = serveAll(ctx, s.d.cl, tr, again, daemonWorkers) })
	if err != nil {
		return err
	}
	s.d.stop()
	all := append(append([]outcome{}, s.warm...), outs...)
	refs, err := references(ctx, e, jobsOf(all))
	if err != nil {
		return err
	}
	v := verify(all, refs)
	v.record(rep, "daemon probe")
	setDaemonLayers(rep, outs, cost.metrics)
	cached, err := cachedResult(all, v.ok)
	if err != nil {
		return err
	}
	var inputs []layerInput
	for _, id := range []string{"R01", "R02", "R03", "R04", "R05", "R06", "R07", "R08"} {
		inputs = append(inputs, layerInput{kernel: "spmspm", matrix: id, scale: "small"})
	}
	for _, id := range []string{"R09", "R10", "R11", "R12", "R13", "R14", "R15", "R16"} {
		inputs = append(inputs, layerInput{kernel: "spmspv", matrix: id, scale: "small"})
	}
	if err := probeLayers(ctx, e, rep, tr, inputs, inputs, "small", cached); err != nil {
		return err
	}
	return finishTrace(e, rep, tr)
}

// traceServeMiss is serve-miss's traced run: the timed phase with every
// other request traced.
func traceServeMiss(ctx context.Context, e *env, rep *report) error {
	warm := warmJobs()
	tr := &tracer{}
	s, err := openSession(ctx, e, tr, warm)
	if err != nil {
		return err
	}
	defer s.d.stop()
	var outs []outcome
	cost, err := measurePhase(ctx, s.d, func() {
		outs, _, _ = missPhase(ctx, s, tr, traceHalf(missJobs(e.seed, warm, missBlocks(e.seconds))))
	})
	if err != nil {
		return err
	}
	s.d.stop()
	all := append(append([]outcome{}, s.warm...), outs...)
	refs, err := references(ctx, e, jobsOf(all))
	if err != nil {
		return err
	}
	v := verify(all, refs)
	v.record(rep, "warm-up and timed phase")
	rep.runs = len(outs)
	setOverhead(rep, outs)
	setDaemonLayers(rep, outs, cost.metrics)
	cached, err := cachedResult(all, v.ok)
	if err != nil {
		return err
	}
	inputs, replays := missInputs(outs)
	if err := probeLayers(ctx, e, rep, tr, inputs, replays, "small", cached); err != nil {
		return err
	}
	if _, _, err := traceExperiments(rep, tr, scaleNamed("test", e.seed)); err != nil {
		return err
	}
	return finishTrace(e, rep, tr)
}

// traceHalf marks every other job untraced, so a traced run compares the
// two halves in the same time window and host drift cancels out.
func traceHalf(jobs []job) []job {
	out := append([]job(nil), jobs...)
	for i := range out {
		out[i].untraced = i%2 == 1
	}
	return out
}

// setOverhead records trace.overhead_pct: how much longer the client's
// share of a request took when traced than when not, compared by median.
// The client's share is the latency less the daemon's own time from
// acceptance to finish, so what the job computes does not enter.
func setOverhead(rep *report, outs []outcome) {
	var half [2][]float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		client := o.done.Sub(o.submitted) - o.st.FinishedAt.Sub(o.st.CreatedAt)
		k := 0
		if o.untraced {
			k = 1
		}
		half[k] = append(half[k], ms(client))
	}
	traced, untraced := median(half[0]), median(half[1])
	rep.set("trace.overhead_pct", "%", 100*(traced-untraced)/untraced)
}

// missProbeInputs caps how many distinct workloads the serve-miss traced
// run builds: the first ones its requests use.
const missProbeInputs = 12

// missInputs returns the first distinct workloads of a serve-miss request
// sequence and the sequence's replays of them, in request order.
func missInputs(outs []outcome) (inputs, replays []layerInput) {
	seen := map[layerInput]bool{}
	for _, o := range outs {
		in := inputOf(o.req)
		if !seen[in] && len(inputs) < missProbeInputs {
			seen[in] = true
			inputs = append(inputs, in)
		}
		if seen[in] {
			replays = append(replays, in)
		}
	}
	return inputs, replays
}
