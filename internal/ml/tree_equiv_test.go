package ml

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceTrainTree is TrainTree as it was before the presorted columns:
// every node re-sorts its samples per feature with sort.Slice. TrainTree
// must build the same node array and importance from any training set.
func referenceTrainTree(x [][]float64, y []int, p TreeParams) (*Tree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("ml: bad training set: %d samples, %d labels", len(x), len(y))
	}
	if p.MinSamplesLeaf < 1 {
		p.MinSamplesLeaf = 1
	}
	nf := len(x[0])
	nc := 0
	for _, yy := range y {
		if yy < 0 {
			return nil, fmt.Errorf("ml: negative class label %d", yy)
		}
		if yy+1 > nc {
			nc = yy + 1
		}
	}
	t := &Tree{nFeatures: nf, nClasses: nc, importance: make([]float64, nf), params: p}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.referenceBuild(x, y, idx, 0)
	return t, nil
}

func (t *Tree) referenceBuild(x [][]float64, y []int, idx []int, depth int) int {
	counts := make([]int, t.nClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, label: majority(counts), samples: len(idx)})

	imp := impurity(counts, len(idx), t.params.Criterion)
	if imp == 0 || len(idx) < 2*t.params.MinSamplesLeaf ||
		(t.params.MaxDepth > 0 && depth >= t.params.MaxDepth) {
		return id
	}

	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	sorted := make([]int, len(idx))
	leftCnt := make([]int, t.nClasses)
	for f := 0; f < t.nFeatures; f++ {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })
		for c := range leftCnt {
			leftCnt[c] = 0
		}
		for k := 0; k < len(sorted)-1; k++ {
			leftCnt[y[sorted[k]]]++
			nl := k + 1
			nr := len(sorted) - nl
			if nl < t.params.MinSamplesLeaf || nr < t.params.MinSamplesLeaf {
				continue
			}
			v, vn := x[sorted[k]][f], x[sorted[k+1]][f]
			if v == vn {
				continue
			}
			rightCnt := make([]int, t.nClasses)
			for c := range rightCnt {
				rightCnt[c] = counts[c] - leftCnt[c]
			}
			gain := imp -
				(float64(nl)*impurity(leftCnt, nl, t.params.Criterion)+
					float64(nr)*impurity(rightCnt, nr, t.params.Criterion))/float64(len(sorted))
			if gain > bestGain {
				bestFeat, bestThr, bestGain = f, (v+vn)/2, gain
			}
		}
	}
	if bestFeat < 0 {
		return id
	}

	var li, ri []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return id
	}
	t.importance[bestFeat] += float64(len(idx)) * bestGain
	l := t.referenceBuild(x, y, li, depth+1)
	r := t.referenceBuild(x, y, ri, depth+1)
	t.nodes[id].feature = bestFeat
	t.nodes[id].threshold = bestThr
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// equivDataset draws one training set of a shape chosen by kind: continuous
// noise with a planted rule, heavily tied small-alphabet columns,
// integer-valued columns, neighbouring floats, columns zeroed the way
// TrainForest masks them, and bootstrap resamples that repeat rows.
func equivDataset(rng *rand.Rand, kind int) ([][]float64, []int) {
	n := 8 + rng.Intn(300)
	nf := 1 + rng.Intn(9)
	nc := 2 + rng.Intn(5)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, nf)
		for f := range row {
			switch kind {
			case 0: // continuous
				row[f] = rng.NormFloat64()
			case 1: // heavy ties
				row[f] = float64(rng.Intn(3)) * 0.25
			case 2: // integer-valued with a wide range
				row[f] = float64(rng.Intn(40) - 20)
			case 4: // neighbouring floats and near-overflow magnitudes, where
				// the midpoint threshold rounds onto one of the two values
				row[f] = float64(1 + rng.Intn(3))
				for s := rng.Intn(4); s > 0; s-- {
					row[f] = math.Nextafter(row[f], 4)
				}
				if f%2 == 1 {
					row[f] = float64(1+rng.Intn(3)) * 0.6e308
				}
			default: // mixed, with some columns ±0
				if f%3 == 0 {
					row[f] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				} else if f%3 == 1 {
					row[f] = float64(rng.Intn(5))
				} else {
					row[f] = rng.Float64()
				}
			}
		}
		x[i] = row
		// A noisy planted rule on the first feature keeps trees non-trivial.
		y[i] = int(math.Abs(row[0])*float64(nc)) % nc
		if kind == 4 {
			y[i] = int(math.Float64bits(row[0])&3+uint64(row[0])) % nc
		}
		if rng.Intn(4) == 0 {
			y[i] = rng.Intn(nc)
		}
	}
	if kind == 3 || rng.Intn(3) == 0 {
		// Bootstrap: resample rows with replacement (shared row slices) and
		// zero a random feature subset per row, as TrainForest does.
		bx := make([][]float64, n)
		by := make([]int, n)
		for i := range bx {
			j := rng.Intn(n)
			bx[i], by[i] = x[j], y[j]
			if kind == 3 {
				row := make([]float64, nf)
				for _, f := range rng.Perm(nf)[:1+nf/2] {
					row[f] = x[j][f]
				}
				bx[i] = row
			}
		}
		x, y = bx, by
	}
	return x, y
}

// TestTrainTreeMatchesReference requires TrainTree to reproduce the
// sort-per-node reference exactly — node arrays (features, thresholds,
// children, labels, sample counts) and importances — over seeded datasets
// covering ties, integer and zero-masked columns, bootstrap duplicates,
// both criteria, MinSamplesLeaf ∈ {1, 5} and MaxDepth ∈ {0, 3, 10}.
func TestTrainTreeMatchesReference(t *testing.T) {
	var params []TreeParams
	for _, c := range []Criterion{Gini, Entropy} {
		for _, leaf := range []int{1, 5} {
			for _, depth := range []int{0, 3, 10} {
				params = append(params, TreeParams{Criterion: c, MaxDepth: depth, MinSamplesLeaf: leaf})
			}
		}
	}
	const datasets = 250
	for i := 0; i < datasets; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		x, y := equivDataset(rng, i%5)
		p := params[i%len(params)]
		got, err := TrainTree(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceTrainTree(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.nodes, want.nodes) {
			t.Fatalf("dataset %d (kind %d, %+v): node arrays differ (%d vs %d nodes)", i, i%5, p, len(got.nodes), len(want.nodes))
		}
		if !reflect.DeepEqual(got.importance, want.importance) ||
			!reflect.DeepEqual(got.FeatureImportance(), want.FeatureImportance()) {
			t.Fatalf("dataset %d (kind %d, %+v): importances differ", i, i%5, p)
		}
	}
}

// referenceTrainForest is TrainForest over referenceTrainTree: the same
// bootstrap and feature-mask draws, so its trees must equal TrainForest's.
func referenceTrainForest(x [][]float64, y []int, p ForestParams) *Forest {
	nf := len(x[0])
	sub := int(math.Sqrt(float64(nf))) + 1
	if sub > nf {
		sub = nf
	}
	rng := rand.New(rand.NewSource(p.Seed))
	f := &Forest{nFeatures: nf}
	for _, yy := range y {
		if yy+1 > f.nClasses {
			f.nClasses = yy + 1
		}
	}
	for k := 0; k < p.Trees; k++ {
		bx := make([][]float64, len(x))
		by := make([]int, len(y))
		for i := range bx {
			j := rng.Intn(len(x))
			feats := rng.Perm(nf)[:sub]
			row := make([]float64, nf)
			for _, ff := range feats {
				row[ff] = x[j][ff]
			}
			bx[i] = row
			by[i] = y[j]
		}
		t, err := referenceTrainTree(bx, by, p.Tree)
		if err != nil {
			panic(err)
		}
		f.trees = append(f.trees, t)
	}
	return f
}

// TestTrainForestMatchesReference trains seeded forests both ways and
// requires identical trees and identical predictions over a probe set.
func TestTrainForestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, y := equivDataset(rng, int(seed)%3)
		p := ForestParams{Trees: 6, Tree: DefaultTreeParams(), Seed: seed}
		got, err := TrainForest(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceTrainForest(x, y, p)
		for i := range want.trees {
			if !reflect.DeepEqual(got.trees[i].nodes, want.trees[i].nodes) {
				t.Fatalf("seed %d: tree %d differs from reference", seed, i)
			}
		}
		// Probe with training rows, some features replaced by fresh draws.
		for i := 0; i < 200; i++ {
			row := append([]float64(nil), x[rng.Intn(len(x))]...)
			for f := range row {
				if rng.Intn(2) == 0 {
					row[f] = rng.NormFloat64() * 10
				}
			}
			if a, b := got.Predict(row), want.Predict(row); a != b {
				t.Fatalf("seed %d: forest predicts %d, reference %d", seed, a, b)
			}
		}
	}
}
