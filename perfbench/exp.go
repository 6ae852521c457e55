package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sparseadapt/internal/experiments"
)

// expSeconds is roughly how long one `exp all -scale small` takes on the
// host the benchmark was written for (2 CPUs).
const expSeconds = 10

// expRepeats is how many `exp all` invocations a run of the given length
// makes: as many as fit, and at least two, so the byte-identity check
// always has a pair to compare. The count depends only on the run length,
// so every run does the same work.
func expRepeats(d time.Duration) int {
	return max(2, int(math.Round(d.Seconds()/expSeconds)))
}

// runExp is the exp-small workload: `sparseadapt exp all -scale small`
// at the workload seed, each time in a fresh child process, repeated
// expRepeats times. The CLI pays model training on every invocation, so
// set-up covers process start only.
func runExp(ctx context.Context, e *env, rep *report) error {
	if e.trace {
		return traceExp(ctx, e, rep)
	}
	setup, err := processStart(ctx, e)
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)

	var walls, cpus, rss []float64
	var ref *expOutput
	for i := 0; i < expRepeats(e.seconds); i++ {
		out, st, err := expAll(ctx, e, i)
		rep.count(1, 0)
		if err != nil {
			rep.count(0, 1)
			rep.invalid("exp all invocation %d: %v", i, err)
			continue
		}
		if msg := out.check(); msg != "" {
			rep.count(0, 1)
			rep.invalid("exp all invocation %d: %s", i, msg)
			continue
		}
		if ref == nil {
			ref = out
		} else if !out.equal(ref) {
			rep.count(0, 1)
			rep.invalid("exp all invocation %d output differs from invocation 0 at the same seed", i)
			continue
		}
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
		rss = append(rss, st.maxRSSMB)
	}
	rep.runs = len(walls)
	if ref == nil {
		return fmt.Errorf("no exp all invocation succeeded")
	}
	nReports := float64(len(ref.csv))
	wall, cpu := median(walls), median(cpus)
	rep.set("wall_s", "s", wall, walls...)
	rep.set("cpu_s", "s", cpu, cpus...)
	rep.set("max_rss_mb", "MB", median(rss), rss...)
	rep.set("jobs_per_s", "1/s", nReports/wall)
	rep.setLatency(scaled(walls, 1000))
	rep.set("cpu_ms_per_job", "ms", cpu*1000/nReports)
	return setSimGains(ctx, e, rep)
}

// expGains are exp-small's sim.* gains: a GM cell of a report's raw CSV.
var expGains = []struct{ name, id, col string }{
	{"sim.spmspm_ee_gain", "fig6", "ee-eff-sa"},
	{"sim.spmspv_pp_eff_gain", "fig7", "cache-eff-sa"},
}

// setSimGains records the two simulated headline gains. Each comes from
// its experiment run alone (`sparseadapt exp <id> -scale small`) at the
// default seed, untimed, so the gains do not depend on the workload seed:
// they move only when the simulated results themselves change.
func setSimGains(ctx context.Context, e *env, rep *report) error {
	dir := filepath.Join(e.work, "sim")
	for _, g := range expGains {
		rep.count(1, 0)
		_, err := runChild(ctx, io.Discard, dir+"-"+g.id+".err", filepath.Join(e.bin, "sparseadapt"),
			"exp", g.id, "-scale", "small", "-seed", strconv.FormatInt(defaultSeed, 10), "-csv", dir)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(dir, g.id+".csv"))
		if err != nil {
			return fmt.Errorf("report %s missing: %w", g.id, err)
		}
		out := &expOutput{csv: map[string][]byte{g.id: b}}
		v, err := out.cell(g.id, "GM", g.col)
		if err != nil {
			return err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			rep.count(0, 1)
			rep.invalid("%s: %s GM %s is %g", g.name, g.id, g.col, v)
			continue
		}
		rep.set(g.name, "x", v)
	}
	return nil
}

// processStart is the median wall time of 21 `sparseadapt version`
// invocations: what every CLI run pays before doing any work. One takes a
// few milliseconds, so many are timed to steady the median.
func processStart(ctx context.Context, e *env) (float64, error) {
	var ts []float64
	for i := 0; i < 21; i++ {
		st, err := runChild(ctx, &bytes.Buffer{}, filepath.Join(e.work, "version.err"),
			filepath.Join(e.bin, "sparseadapt"), "version")
		if err != nil {
			return 0, err
		}
		ts = append(ts, st.wall.Seconds())
	}
	return median(ts), nil
}

// expOutput is what one exp all invocation printed: its standard output
// and the raw CSV of every report.
type expOutput struct {
	stdout []byte
	csv    map[string][]byte // experiment ID -> CSV bytes
}

// expAll runs `sparseadapt exp all -scale small -seed <seed>` once.
func expAll(ctx context.Context, e *env, i int) (*expOutput, childStats, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("exp-%d", i))
	var stdout bytes.Buffer
	st, err := runChild(ctx, &stdout, dir+".err", filepath.Join(e.bin, "sparseadapt"),
		"exp", "all", "-scale", "small", "-seed", strconv.FormatInt(e.seed, 10), "-csv", dir)
	if err != nil {
		return nil, st, err
	}
	out := &expOutput{stdout: stdout.Bytes(), csv: map[string][]byte{}}
	for _, id := range experiments.IDs() {
		b, err := os.ReadFile(filepath.Join(dir, id+".csv"))
		if err != nil {
			return nil, st, fmt.Errorf("report %s missing: %w", id, err)
		}
		out.csv[id] = b
	}
	return out, st, os.RemoveAll(dir)
}

// check returns why the output is not a complete, finite exp all result,
// or "" when it is.
func (o *expOutput) check() string {
	for _, id := range experiments.IDs() {
		if !bytes.Contains(o.stdout, []byte("== "+id+": ")) {
			return fmt.Sprintf("report %s missing from stdout", id)
		}
	}
	for id, b := range o.csv {
		recs, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
		if err != nil {
			return fmt.Sprintf("report %s: %v", id, err)
		}
		for _, row := range recs[1:] {
			for _, cell := range row[1:] {
				if cell == "" {
					continue
				}
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Sprintf("report %s has non-finite value %q", id, cell)
				}
			}
		}
	}
	for _, tok := range []string{"NaN", "Inf"} {
		if bytes.Contains(o.stdout, []byte(tok)) {
			return fmt.Sprintf("stdout contains %s", tok)
		}
	}
	return ""
}

func (o *expOutput) equal(p *expOutput) bool {
	if !bytes.Equal(o.stdout, p.stdout) || len(o.csv) != len(p.csv) {
		return false
	}
	for id, b := range o.csv {
		if !bytes.Equal(b, p.csv[id]) {
			return false
		}
	}
	return true
}

// cell reads one value of a report's raw CSV by row label and column.
func (o *expOutput) cell(id, row, col string) (float64, error) {
	recs, err := csv.NewReader(bytes.NewReader(o.csv[id])).ReadAll()
	if err != nil || len(recs) == 0 {
		return 0, fmt.Errorf("report %s: unreadable CSV", id)
	}
	c := -1
	for j, h := range recs[0] {
		if h == col {
			c = j
		}
	}
	for _, r := range recs[1:] {
		if c > 0 && len(r) > c && r[0] == row {
			return strconv.ParseFloat(r[c], 64)
		}
	}
	return 0, fmt.Errorf("report %s has no %s/%s cell (columns %s)", id, row, col, strings.Join(recs[0], ","))
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
