package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"sparseadapt/internal/obs"
	"sparseadapt/internal/server"
	"sparseadapt/internal/server/client"
)

// job is one request of a daemon workload.
type job struct {
	req      server.JobRequest
	reqID    string // X-Request-ID, shared by every span of the job
	sse      bool   // read the result over the event stream, else by status GET
	untraced bool   // record no spans even in a traced run
}

// key identifies the request's content; identical requests share a key.
func (j job) key() string { return j.req.Fingerprint().String() }

// outcome is what serving one job observed.
type outcome struct {
	job
	st        server.JobStatus
	epochs    []obs.EpochRecord
	err       error
	submitted time.Time // submit request sent
	accepted  time.Time // 202 received
	done      time.Time // terminal result held
}

// result is the job's payload bytes: the result JSON and, for
// event-stream reads, the epoch records.
func (o outcome) result() (res, epochs []byte) {
	res, _ = json.Marshal(o.st.Result) //nolint:errcheck // plain structs always marshal
	if o.sse {
		epochs, _ = json.Marshal(o.epochs) //nolint:errcheck // plain structs always marshal
	}
	return res, epochs
}

// serveOne submits a job and reads its result the way `sparseadapt
// submit` does (event stream) or by polling its status, recording spans
// under the job's request ID when tr is non-nil.
func serveOne(ctx context.Context, cl *client.Client, tr *tracer, j job) outcome {
	if j.untraced {
		tr = nil
	}
	o := outcome{job: j, submitted: time.Now()}
	root := tr.begin("request", j.reqID, 0)
	var st server.JobStatus
	err := tr.timed("server.submit", j.reqID, root, func() error {
		var err error
		st, err = cl.SubmitWithRequestID(ctx, j.req, j.reqID)
		return err
	})
	o.accepted = time.Now()
	if err == nil {
		err = tr.timed("server.delivery", j.reqID, root, func() error {
			var err error
			if j.sse {
				err = cl.Stream(ctx, st.ID, func(ev server.Event) error {
					switch {
					case ev.Type == "retry":
						o.epochs = nil // the retried attempt restarts the epoch stream
					case ev.Type == "epoch" && ev.Epoch != nil:
						o.epochs = append(o.epochs, *ev.Epoch)
					case ev.Status != nil && ev.Status.Terminal():
						o.st = *ev.Status
					}
					return nil
				})
				if err == nil && !o.st.Terminal() {
					err = fmt.Errorf("event stream of job %s closed without a terminal status", st.ID)
				}
			} else {
				o.st, err = pollStatus(ctx, cl, st.ID)
			}
			if err == nil && o.st.State != server.StateDone {
				err = fmt.Errorf("job %s %s: %s", st.ID, o.st.State, o.st.Error)
			}
			return err
		})
	}
	o.done = time.Now()
	if err == nil && tr != nil {
		s := o.st
		tr.add(span{Parent: root, Name: "sched.queue_wait", ReqID: j.reqID, Start: s.CreatedAt, End: s.StartedAt})
		tr.add(span{Parent: root, Name: "server.exec", ReqID: j.reqID, Start: s.StartedAt, End: s.FinishedAt,
			Wait: s.StartedAt.Sub(s.CreatedAt).Seconds()})
	}
	tr.end(root, err)
	o.err = err
	return o
}

// pollInterval is the wait between status polls. It is short and fixed
// so that GET-read latencies are not quantized by a backoff schedule.
const pollInterval = time.Millisecond

// pollStatus polls a job's status until it is terminal.
func pollStatus(ctx context.Context, cl *client.Client, id string) (server.JobStatus, error) {
	for {
		st, err := cl.Get(ctx, id)
		if err != nil || st.Terminal() {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// serveAll serves jobs through conns concurrent connections, each taking
// the next job when its previous one has finished (a closed loop).
func serveAll(ctx context.Context, cl *client.Client, tr *tracer, jobs []job, conns int) []outcome {
	out := make([]outcome, len(jobs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				out[i] = serveOne(ctx, cl, tr, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// reference is a request's result as served by a fresh daemon.
type reference struct {
	res, epochs []byte
	err         error
}

// references serves every distinct request of jobs on fresh daemons, one
// per simulation seed, each of which serves only requests with its seed
// (first in jobs order). These are the results the benchmark's daemon must
// reproduce byte for byte: a result may depend only on the request.
func references(ctx context.Context, e *env, jobs []job) (map[string]reference, error) {
	var seeds []int64
	groups := map[int64][]job{}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.key()] {
			continue
		}
		seen[j.key()] = true
		if _, ok := groups[j.req.Seed]; !ok {
			seeds = append(seeds, j.req.Seed)
		}
		r := j
		r.sse = true
		r.reqID = "ref-" + j.reqID
		groups[j.req.Seed] = append(groups[j.req.Seed], r)
	}
	refs := map[string]reference{}
	for _, seed := range seeds {
		dir, err := os.MkdirTemp(e.work, fmt.Sprintf("ref-seed%d-", seed))
		if err != nil {
			return nil, err
		}
		d, err := startDaemon(ctx, e, dir)
		if err != nil {
			return nil, err
		}
		outs := serveAll(ctx, d.cl, nil, groups[seed], daemonWorkers)
		d.stop()
		for _, o := range outs {
			res, epochs := o.result()
			refs[o.key()] = reference{res: res, epochs: epochs, err: o.err}
		}
	}
	return refs, nil
}

// verdict classifies served outcomes against their references.
type verdict struct {
	ok                            []bool
	errors, mismatches, unchecked int
	altSeedMismatches             int
}

func verify(outs []outcome, refs map[string]reference) verdict {
	v := verdict{ok: make([]bool, len(outs))}
	for i, o := range outs {
		ref, have := refs[o.key()]
		switch {
		case o.err != nil:
			v.errors++
		case !have || ref.err != nil:
			v.unchecked++
		default:
			res, epochs := o.result()
			if bytes.Equal(res, ref.res) && (!o.sse || bytes.Equal(epochs, ref.epochs)) {
				v.ok[i] = true
				continue
			}
			v.mismatches++
			if o.req.Seed != 0 {
				v.altSeedMismatches++
			}
		}
	}
	return v
}

// record reports a verdict on rep: every failed, refused or mismatching
// request is a failed operation; a request the benchmark could not check
// makes the run invalid.
func (v verdict) record(rep *report, what string) {
	failed := v.errors + v.mismatches + v.unchecked
	rep.count(len(v.ok), failed)
	if v.mismatches > 0 {
		rep.note("%s: %d of %d results differ from a fresh daemon's (%d carry an alternate seed)",
			what, v.mismatches, len(v.ok), v.altSeedMismatches)
	}
	if v.errors > 0 {
		rep.note("%s: %d of %d requests failed or were refused", what, v.errors, len(v.ok))
	}
	if v.unchecked > 0 {
		rep.invalid("%s: %d results could not be checked (reference daemon failed)", what, v.unchecked)
	}
}

// session is a booted daemon with its warm-up done.
type session struct {
	d     *daemon
	setup float64 // median boot-to-ready plus warm-up, seconds
	warm  []outcome
}

// setupBoots is how many times set-up boots the daemon; the boot time it
// reports is their median.
const setupBoots = 3

// openSession boots the daemon setupBoots times on empty journals, keeps
// the last one and serves the warm-up jobs on it.
func openSession(ctx context.Context, e *env, tr *tracer, warm []job) (*session, error) {
	var boots []float64
	var d *daemon
	for i := 0; i < setupBoots; i++ {
		d.stop()
		dir, err := os.MkdirTemp(e.work, "daemon-")
		if err != nil {
			return nil, err
		}
		if d, err = startDaemon(ctx, e, dir); err != nil {
			return nil, err
		}
		boots = append(boots, d.boot.Seconds())
	}
	start := time.Now()
	outs := serveAll(ctx, d.cl, tr, warm, daemonWorkers)
	return &session{d: d, setup: median(boots) + time.Since(start).Seconds(), warm: outs}, nil
}

// The request space of the daemon workloads.
var (
	kernelNames = []string{"spmspm", "spmspv", "bfs", "sssp"}
	modeNames   = []string{server.ModeAdaptive, server.ModeStatic, server.ModeResilient, server.ModeBatch}
	optNames    = []string{"ee", "pp"}
)

// faultSpec is the fault injection of resilient requests.
const faultSpec = "nan=0.1,stuck=0.05,rc-drop=0.2,seed=7"

// probeJobs are the requests behind the served sim.* gains: SparseAdapt
// against the static Baseline on R04 at test scale, for SpMSpM in
// energy-efficient mode and SpMSpV in power-performance mode.
func probeJobs(prefix string) []job {
	var out []job
	for _, g := range simGains {
		for _, mode := range []string{server.ModeAdaptive, server.ModeStatic} {
			out = append(out, job{sse: true, reqID: probeID(prefix, g.kernel, g.opt, mode),
				req: server.JobRequest{Mode: mode, Kernel: g.kernel, Matrix: "R04", Scale: "test", OptMode: g.opt}})
		}
	}
	return out
}

// simGains names the served sim.* gains and the requests behind them.
var simGains = []struct{ name, kernel, opt string }{
	{"sim.spmspm_ee_gain", "spmspm", "ee"}, {"sim.spmspv_pp_eff_gain", "spmspv", "pp"},
}

func probeID(prefix, kernel, opt, mode string) string {
	return fmt.Sprintf("%s-probe-%s-%s-%s", prefix, kernel, opt, mode)
}

// setServedGains records the sim.* gains from the probe jobs' verified
// results: device GFLOPS/W under SparseAdapt over the static Baseline.
func setServedGains(rep *report, outs []outcome, ok []bool) {
	eff := map[string]float64{}
	for i, o := range outs {
		if ok[i] && o.st.Result != nil {
			eff[o.reqID] = o.st.Result.Host.Device.GFLOPSPerW()
		}
	}
	for _, g := range simGains {
		ad := eff[probeID(rep.workload, g.kernel, g.opt, server.ModeAdaptive)]
		st := eff[probeID(rep.workload, g.kernel, g.opt, server.ModeStatic)]
		if ad == 0 || st == 0 {
			rep.invalid("%s: probe results missing or unverified", g.name)
			continue
		}
		rep.set(g.name, "x", ad/st)
	}
}

// metricsDelta is the change of selected /metrics counters over a phase.
type metricsDelta struct{ hits, misses, rejected, retries float64 }

func scrape(ctx context.Context, cl *client.Client) (metricsDelta, error) {
	text, err := cl.Metrics(ctx)
	if err != nil {
		return metricsDelta{}, err
	}
	return metricsDelta{
		hits:   promCounter(text, "engine_cache_hits_total"),
		misses: promCounter(text, "engine_cache_misses_total"),
		rejected: promCounter(text, "server_admission_rejected_total", "server_ratelimit_rejected_total",
			"server_breaker_rejected_total", "tenant_rejected_quota_total", "tenant_rejected_rate_total"),
		retries: promCounter(text, "server_job_retries_total"),
	}, nil
}

func (a metricsDelta) sub(b metricsDelta) metricsDelta {
	return metricsDelta{a.hits - b.hits, a.misses - b.misses, a.rejected - b.rejected, a.retries - b.retries}
}

// phaseCost is the daemon's resource use over a timed phase.
type phaseCost struct {
	cpu     float64 // seconds
	peakRSS float64 // MB
	metrics metricsDelta
}

// measurePhase runs fn and reports the daemon's CPU, peak RSS and counter
// deltas across it.
func measurePhase(ctx context.Context, d *daemon, fn func()) (phaseCost, error) {
	cpu0, err := d.procCPU()
	if err != nil {
		return phaseCost{}, err
	}
	m0, err := scrape(ctx, d.cl)
	if err != nil {
		return phaseCost{}, err
	}
	fn()
	cpu1, err := d.procCPU()
	if err != nil {
		return phaseCost{}, err
	}
	m1, err := scrape(ctx, d.cl)
	if err != nil {
		return phaseCost{}, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return phaseCost{}, err
	}
	return phaseCost{cpu: (cpu1 - cpu0).Seconds(), peakRSS: rss, metrics: m1.sub(m0)}, nil
}
