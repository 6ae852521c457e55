package tenant

import (
	"context"
	"fmt"

	"sparseadapt/internal/config"
	"sparseadapt/internal/core"
	"sparseadapt/internal/obs"
	"sparseadapt/internal/power"
	"sparseadapt/internal/sim"
)

// Options configure a Mux.
type Options struct {
	// Quantum is the base scheduling quantum in epochs: one WDRR round
	// grants each backlogged tenant Quantum × class-weight epochs of
	// service (default 4).
	Quantum int
	// Flat disables class weighting — every tenant gets Quantum epochs per
	// round regardless of class. The fairness baseline the mux experiment
	// compares WDRR against.
	Flat bool
	// Metrics receives the tenant_* metric family (nil = metrics off).
	Metrics *obs.Registry
}

// ScheduleEntry is one scheduling decision: which tenant ran and for how
// many epochs. The sequence is deterministic for a given job set and
// options, which the determinism property tests rely on.
type ScheduleEntry struct {
	Tenant string
	Epochs int
}

// TenantResult is one tenant's ledger after a multiplexed run.
type TenantResult struct {
	ID    string
	Class Class
	// Metrics aggregates the tenant's own epochs — byte-identical to a
	// solo run of the same job (the determinism contract).
	Metrics power.Metrics
	// EpochsRun counts epochs executed.
	EpochsRun int
	// Switches counts context switches into this tenant; SwitchCycles,
	// SwitchTimeSec and SwitchEnergyJ are their attributed cost (the
	// incoming tenant pays for taking over the fabric).
	Switches      int
	SwitchCycles  float64
	SwitchTimeSec float64
	SwitchEnergyJ float64
	// ServiceSec is total fabric occupancy: own epochs plus attributed
	// switch time. VirtualTimeSec is ServiceSec normalized by class weight
	// — equal virtual times mean weighted-fair service.
	ServiceSec     float64
	VirtualTimeSec float64
	// FinishSec is the fabric clock when the tenant's last epoch
	// completed; slowdown vs an isolated run is FinishSec / solo TimeSec.
	FinishSec float64
	// Reconfigs counts in-quantum reconfigurations the tenant's own
	// control loop applied.
	Reconfigs int
	// Resilience is the tenant's control-loop report (zero without
	// Control); interference classifications land here.
	Resilience core.ResilienceReport
	// Final is the configuration the tenant ended in.
	Final config.Config
}

// MuxResult is the outcome of one multiplexed run.
type MuxResult struct {
	// Tenants are the per-tenant ledgers, in admission order.
	Tenants []TenantResult
	// TotalSec and TotalEnergyJ are the fabric makespan and energy:
	// every tenant's epochs plus every switch.
	TotalSec     float64
	TotalEnergyJ float64
	// Switches counts tenant context switches performed.
	Switches int
	// Schedule is the full election sequence.
	Schedule []ScheduleEntry
}

// Jain returns Jain's fairness index over the tenants' virtual-time
// service: 1 means perfectly weighted-fair, 1/n means one tenant got
// everything.
func (r MuxResult) Jain() float64 {
	xs := make([]float64, 0, len(r.Tenants))
	for _, t := range r.Tenants {
		xs = append(xs, t.VirtualTimeSec)
	}
	return Jain(xs)
}

// Mux time-multiplexes one simulated machine between tenants. Build with
// New, Add jobs, then Run once. A Mux is single-use and not safe for
// concurrent use; determinism comes from its strictly sequential loop.
type Mux struct {
	chip power.Chip
	bw   float64
	opts Options
	jobs []*runJob
}

type runJob struct {
	job     Job
	cur     config.Config // config to resume under (tracks in-quantum reconfigs)
	next    int           // next epoch index
	deficit int
	res     TenantResult
}

func (r *runJob) done() bool { return r.next >= len(r.job.Epochs) }

// New builds an empty multiplexer for one simulated machine shape.
func New(chip power.Chip, bw float64, opts Options) *Mux {
	if opts.Quantum < 1 {
		opts.Quantum = 4
	}
	return &Mux{chip: chip, bw: bw, opts: opts}
}

// Add admits a tenant job. All jobs must share the machine's GPE count.
func (x *Mux) Add(j Job) error {
	if err := j.validate(); err != nil {
		return err
	}
	if j.Trace.NCores != x.chip.NGPE() {
		return fmt.Errorf("tenant %s: trace generated for %d cores, machine has %d", j.ID, j.Trace.NCores, x.chip.NGPE())
	}
	for _, r := range x.jobs {
		if r.job.ID == j.ID {
			return fmt.Errorf("tenant: duplicate ID %q", j.ID)
		}
	}
	x.jobs = append(x.jobs, &runJob{
		job: j, cur: j.Start,
		res: TenantResult{ID: j.ID, Class: j.Class},
	})
	return nil
}

// weight returns the WDRR weight the options assign the job.
func (x *Mux) weight(r *runJob) int {
	if x.opts.Flat {
		return 1
	}
	return r.job.Class.Weight()
}

// Run interleaves every admitted job to completion and returns the
// per-tenant ledgers. Election is weighted deficit round-robin: each round
// credits every unfinished tenant Quantum × weight epochs of deficit, then
// serves tenants in admission order, each running down its deficit (or its
// remaining work) before the next is elected. A tenant switch charges
// sim.ContextSwitch through the machine and attributes the cost to the
// incoming tenant.
func (x *Mux) Run() (MuxResult, error) {
	if len(x.jobs) == 0 {
		return MuxResult{}, fmt.Errorf("tenant: no jobs admitted")
	}
	var (
		out   MuxResult
		m     *sim.Machine
		cur   *runJob // tenant currently bound to the machine
		clock float64 // fabric simulated-time cursor
	)
	reg := x.opts.Metrics

	for remaining := len(x.jobs); remaining > 0; {
		for _, r := range x.jobs {
			if r.done() {
				continue
			}
			r.deficit += x.opts.Quantum * x.weight(r)
			served, err := x.serve(&m, &cur, r, &clock, &out)
			if err != nil {
				return MuxResult{}, err
			}
			if served > 0 {
				out.Schedule = append(out.Schedule, ScheduleEntry{Tenant: r.job.ID, Epochs: served})
			}
			if r.done() {
				r.deficit = 0
				r.res.FinishSec = clock
				if c := r.job.Control; c != nil {
					r.res.Resilience = c.Report()
					c.Flush()
				}
				r.res.Final = r.cur
				remaining--
			}
		}
	}

	for _, r := range x.jobs {
		r.res.ServiceSec = r.res.Metrics.TimeSec + r.res.SwitchTimeSec
		r.res.VirtualTimeSec = r.res.ServiceSec / float64(x.weight(r))
		out.Tenants = append(out.Tenants, r.res)
		out.TotalSec += r.res.ServiceSec
		out.TotalEnergyJ += r.res.Metrics.EnergyJ + r.res.SwitchEnergyJ
		if reg != nil {
			reg.Counter("tenant_epochs_total", "epochs executed across all tenants of the multiplexed fabric").Add(int64(r.res.EpochsRun))
			reg.Counter("tenant_interference_epochs_total", "epochs classified as co-tenant interference by tenant control loops").Add(int64(r.res.Resilience.InterferenceEpochs))
		}
	}
	if reg != nil {
		reg.Counter("tenant_switches_total", "tenant context switches on the multiplexed fabric").Add(int64(out.Switches))
		reg.Gauge("tenant_active", "tenants admitted to the last multiplexed run").Set(float64(len(x.jobs)))
	}
	return out, nil
}

// serve runs tenant r until its deficit or its work is exhausted,
// performing the context switch in if another tenant holds the machine.
func (x *Mux) serve(m **sim.Machine, cur **runJob, r *runJob, clock *float64, out *MuxResult) (int, error) {
	if r.deficit <= 0 || r.done() {
		return 0, nil
	}
	if *cur != r {
		if err := x.switchTo(m, cur, r, clock, out); err != nil {
			return 0, err
		}
	}
	served := 0
	for r.deficit > 0 && !r.done() {
		er := (*m).RunEpoch(r.job.Epochs[r.next])
		r.next++
		r.deficit--
		served++
		r.res.Metrics.Add(er.Metrics)
		r.res.EpochsRun++
		*clock += er.Metrics.TimeSec
		if c := r.job.Control; c != nil {
			before := (*m).Config()
			c.Step(*m, er)
			if (*m).Config() != before {
				r.res.Reconfigs++
			}
		}
	}
	r.cur = (*m).Config()
	return served, nil
}

// switchTo binds the machine to tenant r, charging the context switch to r
// (the incoming tenant pays for taking over the fabric, including any
// penalty the outgoing tenant's last-epoch reconfiguration left pending —
// ContextSwitch sweeps it so it cannot distort r's own epoch accounting).
// The first tenant of a run gets a fresh machine for free: the fabric was
// idle.
func (x *Mux) switchTo(m **sim.Machine, cur **runJob, r *runJob, clock *float64, out *MuxResult) error {
	if *m == nil {
		*m = sim.New(x.chip, x.bw, r.cur)
	} else {
		rc, err := (*m).ContextSwitch(r.cur)
		if err != nil {
			return fmt.Errorf("tenant %s: context switch: %w", r.job.ID, err)
		}
		ts, ej := sim.SwitchPenalty(x.chip, r.cur, rc, x.bw)
		r.res.Switches++
		r.res.SwitchCycles += rc.Cycles
		r.res.SwitchTimeSec += ts
		r.res.SwitchEnergyJ += ej
		*clock += ts
		out.Switches++
		if reg := x.opts.Metrics; reg != nil {
			reg.Counter("tenant_switch_cycles_total", "cycles spent on tenant context switches").Add(int64(rc.Cycles))
		}
		if c := r.job.Control; c != nil {
			c.NoteSwitch()
		}
	}
	(*m).BindTrace(r.job.Trace)
	*cur = r
	return nil
}

// Isolated runs one job solo on a fresh machine of the same shape — the
// baseline for slowdown accounting. The job's Control (if any) is driven
// as the same step the mux feeds, so the comparison is control-for-control.
func Isolated(chip power.Chip, bw float64, j Job) (TenantResult, error) {
	if err := j.validate(); err != nil {
		return TenantResult{}, err
	}
	step := core.Hold(nil)
	if j.Control != nil {
		step = j.Control
	}
	m := sim.New(chip, bw, j.Start)
	run, err := core.Drive(context.Background(), m, core.OnTrace(j.Trace, j.Epochs), step)
	if err != nil {
		return TenantResult{}, err
	}
	res := TenantResult{
		ID: j.ID, Class: j.Class, Metrics: run.Total,
		EpochsRun: len(run.Epochs), Reconfigs: run.Reconfig, Final: m.Config(),
	}
	if c := j.Control; c != nil {
		res.Resilience = c.Report()
	}
	res.ServiceSec = res.Metrics.TimeSec
	res.VirtualTimeSec = res.ServiceSec / float64(j.Class.Weight())
	res.FinishSec = res.Metrics.TimeSec
	return res, nil
}
