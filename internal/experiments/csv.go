package experiments

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"sparseadapt/internal/engine"
)

// WriteCSV exports the report's rows as a CSV file (the artifact's raw
// result format, Appendix A.6): a header of "series" plus the column
// names, one row per series.
func (r *Report) WriteCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	header := append([]string{"series"}, r.Columns...)
	if err := w.Write(header); err != nil {
		return err
	}
	for _, row := range r.Rows {
		rec := make([]string, 0, len(header))
		rec = append(rec, row.Label)
		for j := range r.Columns {
			if j < len(row.Values) {
				rec = append(rec, strconv.FormatFloat(row.Values[j], 'g', -1, 64))
			} else {
				rec = append(rec, "")
			}
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// RunAll executes every registered experiment at the given scale
// and writes one CSV per experiment into dir (created if needed), mirroring
// the paper artifact's rep_data/ output. When sc.Eng is set, experiments
// run concurrently (each experiment is one engine task, and its internal
// recordings and training sweeps fan out further on the same engine);
// reports are still returned and written in ID order. The first failure
// cancels the run, and so does cancelling the context (e.g. on SIGINT),
// which returns the reports completed so far together with the context's
// error.
func RunAll(ctx context.Context, sc Scale, dir string) ([]*Report, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	ids := IDs()
	tasks := make([]engine.Task[*Report], len(ids))
	for i, id := range ids {
		id := id
		// Whole experiments are never cached: they depend on the full Scale
		// and are cheap relative to the recordings/sweeps inside them, which
		// carry their own content-addressed caching.
		tasks[i] = engine.Task[*Report]{Compute: func(ctx context.Context) (*Report, error) {
			e, err := Get(id)
			if err != nil {
				return nil, err
			}
			rep, err := e.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", id, err)
			}
			return rep, nil
		}}
	}
	out, err := engine.Map(ctx, sc.Eng, tasks)
	if err != nil {
		// Preserve the partial-prefix contract of the serial version.
		var done []*Report
		for _, r := range out {
			if r == nil {
				break
			}
			done = append(done, r)
		}
		return done, err
	}
	if dir != "" {
		for i, rep := range out {
			if err := rep.WriteCSV(filepath.Join(dir, ids[i]+".csv")); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}
