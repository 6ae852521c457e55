// Command perfbench is the repository's end-to-end benchmark. It drives the
// real programs the way users do — the sparseadapt CLI as a child process
// and the sparseadaptd daemon over HTTP — on inputs generated from a
// workload seed, checks every output against a reference, and prints each
// end-to-end metric by name and unit. With -trace 1 it instead makes the
// traced run: spans around its own calls into each layer's public
// functions, summarized as per-layer metrics.
//
// Run it through run.sh from the repository root, which first builds this
// program and the two it measures from the checkout's sources:
//
//	bash perfbench/run.sh --workload serve-miss --seed 3 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metric
// definitions and the layer-to-metric map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(context.Context, *env, *report) error{
	"exp-small":  runExp,
	"serve-miss": runServeMiss,
}

// env is what one benchmark run knows about its surroundings.
type env struct {
	root    string        // checkout root
	bin     string        // directory holding sparseadapt and sparseadaptd
	work    string        // scratch directory of this run, removed at exit
	seed    int64         // workload seed
	seconds time.Duration // measured time of the run
	trace   bool          // traced run (per-layer metrics)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: exp-small|serve-miss")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fl.Int("seconds", 20, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 makes the traced run and prints per-layer metrics")
	root := fl.String("root", ".", "repository checkout root")
	bin := fl.String("bin", ".bench_build/bin", "directory with the built sparseadapt and sparseadaptd")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload exp-small|serve-miss, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	binDir := *bin
	if !filepath.IsAbs(binDir) {
		binDir = filepath.Join(absRoot, binDir)
	}
	for _, name := range []string{"sparseadapt", "sparseadaptd"} {
		if _, err := os.Stat(filepath.Join(binDir, name)); err != nil {
			fmt.Fprintf(stderr, "perfbench: program not built: %v\n", err)
			return 1
		}
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{root: absRoot, bin: binDir, work: work, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	rep := newReport(*workload, e)
	if err := fn(ctx, e, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := rep.print(stdout, absRoot); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// infValue stands in for +Inf in JSON output: a percentile that falls on
// a failed request has missed every limit.
const infValue = math.MaxFloat64

// jsonable maps NaN and +Inf to infValue and -Inf to -infValue, which JSON
// can carry.
func jsonable(v float64) float64 {
	switch {
	case math.IsNaN(v), math.IsInf(v, 1):
		return infValue
	case math.IsInf(v, -1):
		return -infValue
	}
	return v
}

// report accumulates one run's metrics, raw per-repetition values, notes
// and the per-layer table, then prints them.
type report struct {
	workload string
	env      *env
	res      result
	order    []string
	raw      map[string][]float64
	runs     int // repetitions measured inside this run
	notes    []string
	layers   []layerRow
}

func newReport(workload string, e *env) *report {
	return &report{workload: workload, env: e, raw: map[string][]float64{},
		res: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records a metric; raw holds the per-repetition values it summarizes.
// A NaN value makes the run incorrect; +Inf prints as infValue.
func (r *report) set(name, unit string, v float64, raw ...float64) {
	if math.IsNaN(v) {
		r.invalid("metric %s is NaN", name)
	}
	v = jsonable(v)
	if _, ok := r.res.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	if len(raw) > 0 {
		r.raw[name] = raw
	}
}

// setLatency records latency_p50_ms and latency_tail_ms from latencies in
// ms (failures as +Inf). The tail is the highest percentile with at least
// minBeyond samples beyond it, or the slowest sample when no percentile
// has that many.
func (r *report) setLatency(lat []float64) {
	r.set("latency_p50_ms", "ms", percentile(lat, 0.5))
	if p := tailPercentile(len(lat)); p == 0 {
		r.set("latency_tail_ms", "ms", percentile(lat, 1))
		r.note("latency_tail_ms is the slowest of %d samples (too few for a percentile with %d beyond it)", len(lat), minBeyond)
	} else {
		r.set("latency_tail_ms", "ms", percentile(lat, p))
		r.note("latency_tail_ms is the p%g of %d samples", p*100, len(lat))
	}
	r.raw["latency_ms"] = lat
}

// invalid marks the run's outputs as not shown correct.
func (r *report) invalid(format string, args ...any) {
	r.res.Correct = false
	r.note("INVALID: "+format, args...)
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count records attempted and failed operations.
func (r *report) count(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// print writes the human-readable table, the host record (also saved under
// .bench_build/results) and, last, the JSON result line.
func (r *report) print(w io.Writer, root string) error {
	if r.res.Attempted < 1 {
		return fmt.Errorf("%s attempted no operations", r.workload)
	}
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v runs=%d\n", r.workload, r.env.seed, r.env.trace, r.runs)
	fmt.Fprintf(w, "operations: attempted=%d succeeded=%d failed=%d correct=%v\n",
		r.res.Attempted, r.res.Attempted-r.res.Failed, r.res.Failed, r.res.Correct)
	for _, name := range r.order {
		m := r.res.Metrics[name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if len(r.layers) > 0 {
		printLayers(w, r.layers)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	rec := hostRecord(root)
	rec["workload"] = r.workload
	rec["seed"] = r.env.seed
	rec["seconds"] = r.env.seconds.Seconds()
	rec["trace"] = r.env.trace
	rec["runs"] = r.runs
	raw := map[string][]float64{}
	for k, vs := range r.raw {
		raw[k] = make([]float64, len(vs))
		for i, v := range vs {
			raw[k][i] = jsonable(v)
		}
	}
	rec["raw"] = raw
	rec["result"] = r.res
	rec["layers"] = r.layers
	rec["notes"] = r.notes
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	dir := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v-%d.json", r.workload, r.env.seed, r.env.trace, time.Now().UnixNano())
	if err := os.WriteFile(filepath.Join(dir, name), recJSON, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "record: %s\n", recJSON)
	last, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

// hostRecord describes the host and source the numbers were measured on.
func hostRecord(root string) map[string]any {
	rec := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"commit":     commit(root),
		"source":     sourceDigest(root),
	}
	return rec
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git commit, or a marker when the checkout is
// not a git repository (sourceDigest then identifies the code). Git is
// asked only when root itself holds the repository, so an enclosing one
// is never reported.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root, in path
// order, skipping dot directories (build outputs, VCS metadata).
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error { //nolint:errcheck // a partial digest is still labelled
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
