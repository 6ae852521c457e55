package ml

import (
	"math"
	"math/rand"
	"testing"
)

// trainerDataset mimics one per-parameter training set of the trainer at
// small scale: about a thousand examples of a 27-wide feature vector — nine
// small-range configuration indices followed by continuous telemetry — and
// a three-class label that depends on both.
func trainerDataset(rng *rand.Rand) ([][]float64, []int) {
	card := []int{2, 2, 5, 5, 6, 3, 3, 3, 2}
	const n, nf = 1000, 27
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			if f < len(card) {
				row[f] = float64(rng.Intn(card[f]))
			} else {
				row[f] = math.Exp(rng.NormFloat64())
			}
		}
		x[i] = row
		switch {
		case row[12] > 1.5 && row[3] < 2:
			y[i] = 2
		case row[20] < 0.8 || row[5] == 0:
			y[i] = 1
		}
		if rng.Intn(10) == 0 {
			y[i] = rng.Intn(3)
		}
	}
	return x, y
}

var treeSink *Tree

// BenchmarkTrainTree fits one tree with the default parameters to a
// trainer-sized dataset.
func BenchmarkTrainTree(b *testing.B) {
	x, y := trainerDataset(rand.New(rand.NewSource(1)))
	p := DefaultTreeParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := TrainTree(x, y, p)
		if err != nil {
			b.Fatal(err)
		}
		treeSink = t
	}
}
