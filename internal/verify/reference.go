package verify

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sparseadapt/internal/config"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/oracle"
	"sparseadapt/internal/power"
)

// Differential checking: the traced kernels are intricate (outer products,
// partial-product merges, per-GPE scheduling), so each one is validated
// against the most naive implementation that could possibly be right — a
// dense triple loop — on random inputs. Tolerances are relative: the
// traced kernels accumulate in data-dependent order, so results agree to
// rounding, not bit-exactly.

// refTol is the relative floating-point tolerance for reference
// comparisons. Corpus values are O(1) and reductions are short, so 1e-9
// is generous for reordering error yet catches any genuine defect.
const refTol = 1e-9

// RefSpMSpM computes C = A·B with a dense triple loop.
func RefSpMSpM(a *matrix.CSC, b *matrix.CSR) [][]float64 {
	ad := a.ToCSR().Dense()
	bd := b.Dense()
	out := make([][]float64, a.Rows)
	for i := range out {
		out[i] = make([]float64, b.Cols)
		for k := 0; k < a.Cols; k++ {
			if ad[i][k] == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out[i][j] += ad[i][k] * bd[k][j]
			}
		}
	}
	return out
}

// RefSpMSpV computes y = A·x densely.
func RefSpMSpV(a *matrix.CSC, x *matrix.SparseVec) []float64 {
	ad := a.ToCSR().Dense()
	xd := x.Dense()
	out := make([]float64, a.Rows)
	for i := range out {
		for j := 0; j < a.Cols; j++ {
			out[i] += ad[i][j] * xd[j]
		}
	}
	return out
}

// closeRel reports |a-b| ≤ refTol·max(1, |a|, |b|).
func closeRel(a, b float64) bool {
	scale := 1.0
	if v := math.Abs(a); v > scale {
		scale = v
	}
	if v := math.Abs(b); v > scale {
		scale = v
	}
	return math.Abs(a-b) <= refTol*scale
}

// CheckSpMSpM runs the traced kernel on (a, b) and compares against the
// dense reference, returning a readable error naming the first divergent
// cell.
func CheckSpMSpM(a *matrix.CSC, b *matrix.CSR, nGPE, nLCP int) error {
	c, _, err := kernels.SpMSpM(a, b, nGPE, nLCP)
	if err != nil {
		return err
	}
	ref := RefSpMSpM(a, b)
	got := c.Dense()
	for i := range ref {
		for j := range ref[i] {
			if !closeRel(ref[i][j], got[i][j]) {
				return fmt.Errorf("SpMSpM C[%d][%d]: reference %v, kernel %v", i, j, ref[i][j], got[i][j])
			}
		}
	}
	return nil
}

// CheckSpMSpV runs the traced kernel on (a, x) and compares against the
// dense reference.
func CheckSpMSpV(a *matrix.CSC, x *matrix.SparseVec, nGPE, nLCP int) error {
	y, _, err := kernels.SpMSpV(a, x, nGPE, nLCP)
	if err != nil {
		return err
	}
	ref := RefSpMSpV(a, x)
	got := y.Dense()
	for i := range ref {
		if !closeRel(ref[i], got[i]) {
			return fmt.Errorf("SpMSpV y[%d]: reference %v, kernel %v", i, ref[i], got[i])
		}
	}
	return nil
}

// CheckCorpusKernels differentially validates every corpus scenario's
// kernel output against the dense references.
func CheckCorpusKernels() error {
	for _, s := range Corpus() {
		am, err := buildMatrix(s)
		if err != nil {
			return err
		}
		a := am.ToCSC()
		switch s.Kernel {
		case "spmspm":
			err = CheckSpMSpM(a, am.ToCSR(), corpusChip.NGPE(), corpusChip.Tiles)
		case "spmspv":
			x := matrix.RandomVec(rand.New(rand.NewSource(s.Seed+100)), a.Cols, 0.5)
			err = CheckSpMSpV(a, x, corpusChip.NGPE(), corpusChip.Tiles)
		}
		if err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// MaxEDPRatio is the accepted ratio of the learned controller's
// energy-delay product to the Ideal Static bound from a brute-force oracle
// recording on the corpus. The paper's controller lands near Ideal Static;
// the bound is deliberately loose (the corpus model is tiny) while still
// catching a controller whose decisions have gone off the rails.
const MaxEDPRatio = 2.5

// EDPReport is the outcome of one controller-vs-oracle cross-check.
type EDPReport struct {
	Scenario       string
	ControllerEDP  float64
	IdealStaticEDP float64
	Ratio          float64
}

// CheckControllerEDP cross-checks every controller scenario in the corpus
// against a brute-force oracle recording of the same workload over the
// widened action space (each sampled configuration priced on its own
// dataflow/format/scheduling variant): the controller's EDP must stay
// within MaxEDPRatio of Ideal Static's. The sampled configuration set is
// deterministic, so the reports are too.
func CheckControllerEDP() ([]EDPReport, error) {
	var reports []EDPReport
	for _, s := range Corpus() {
		if _, isCtl := s.Schedule.(controllerSchedule); !isCtl {
			continue
		}
		out, err := Run(s)
		if err != nil {
			return nil, err
		}
		src, err := s.Source()
		if err != nil {
			return nil, err
		}
		cfgs := oracle.SampleConfigs(rand.New(rand.NewSource(s.Seed+200)), 8, config.CacheMode)
		rec, err := oracle.RecordSourceEngine(context.Background(), nil, nil, corpusChip, corpusBW, src, s.EpochScale, cfgs)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: oracle recording: %w", s.Name, err)
		}
		_, ideal := rec.IdealStatic(power.EnergyEfficient)
		edp := func(m power.Metrics) float64 { return m.TimeSec * m.EnergyJ }
		rep := EDPReport{
			Scenario:       s.Name,
			ControllerEDP:  edp(out.Total),
			IdealStaticEDP: edp(ideal),
		}
		if rep.IdealStaticEDP > 0 {
			rep.Ratio = rep.ControllerEDP / rep.IdealStaticEDP
		}
		if rep.Ratio > MaxEDPRatio {
			return reports, fmt.Errorf("scenario %s: controller EDP %.3g is %.2fx Ideal Static's %.3g (limit %.2fx)",
				s.Name, rep.ControllerEDP, rep.Ratio, rep.IdealStaticEDP, MaxEDPRatio)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
