package kernels_test

import (
	"testing"

	"sparseadapt/internal/experiments"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
)

// BenchmarkTraceBuild times building the SpMSpM trace (A × Aᵀ, as a daemon
// job does) of dataset matrix R07 at test scale, about 630k events. B/op
// against the trace's 8 bytes per event shows what building costs beyond
// the trace itself.
func BenchmarkTraceBuild(b *testing.B) {
	sc := experiments.TestScale()
	entry, err := matrix.Entry("R07")
	if err != nil {
		b.Fatal(err)
	}
	am := entry.Generate(sc.Matrix, sc.Seed)
	a, bt := am.ToCSC(), am.ToCSR().Transpose()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := kernels.SpMSpM(a, bt, sc.Chip.NGPE(), sc.Chip.Tiles); err != nil {
			b.Fatal(err)
		}
	}
}
