// Package ml is the machine-learning substrate of the reproduction,
// standing in for scikit-learn (Section 5.1): CART decision-tree
// classifiers with pruning and Gini feature importance, random forests,
// linear and logistic regression (the four model families the paper
// compared in Section 4.3), k-fold cross-validation and hyperparameter
// grid search.
package ml

import (
	"fmt"
	"math"
)

// Classifier predicts a class label from a feature vector.
type Classifier interface {
	Predict(x []float64) int
}

// Criterion selects the impurity function used to score splits.
type Criterion int

const (
	// Gini impurity (CART default).
	Gini Criterion = iota
	// Entropy (information gain).
	Entropy
)

// String names the criterion.
func (c Criterion) String() string {
	if c == Entropy {
		return "entropy"
	}
	return "gini"
}

// TreeParams are the hyperparameters the paper sweeps with 3-fold
// cross-validation: criterion, max_depth and min_samples_leaf.
type TreeParams struct {
	Criterion      Criterion
	MaxDepth       int // 0 = unlimited
	MinSamplesLeaf int // minimum samples per leaf (≥1)
}

// DefaultTreeParams mirror a pruned scikit-learn DecisionTreeClassifier.
func DefaultTreeParams() TreeParams {
	return TreeParams{Criterion: Gini, MaxDepth: 10, MinSamplesLeaf: 5}
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int // child indices into Tree.nodes
	right     int
	label     int // majority class (used at leaves)
	samples   int
}

// Tree is a CART decision-tree classifier over continuous features.
type Tree struct {
	nodes      []node
	nFeatures  int
	nClasses   int
	importance []float64 // un-normalized Gini importance per feature
	params     TreeParams
}

// TrainTree fits a decision tree to X (n×f) with integer class labels Y.
func TrainTree(x [][]float64, y []int, p TreeParams) (*Tree, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("ml: bad training set: %d samples, %d labels", len(x), len(y))
	}
	if len(x) > math.MaxInt32 {
		return nil, fmt.Errorf("ml: training set of %d samples is too large", len(x))
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
	newGrower(t, x, y).build(0, len(x), 0)
	return t, nil
}

// grower holds the working state of one TrainTree call. Every feature's
// sample indices are sorted once, by (value, index); a node owns the same
// [lo,hi) segment of every column, so it scans each feature in value order
// without sorting, and a split partitions each segment stably in place.
type grower struct {
	t       *Tree
	y       []int
	vals    [][]float64 // vals[f][i] = x[i][f], one contiguous column per feature
	cols    [][]int32   // cols[f]: sample indices, sorted by (vals[f][i], i) once the root splits
	scratch []int32     // right half of a column while partitioning

	counts, leftCnt, rightCnt []int
}

func newGrower(t *Tree, x [][]float64, y []int) *grower {
	n := len(x)
	g := &grower{
		t: t, y: y,
		vals:     make([][]float64, t.nFeatures),
		cols:     make([][]int32, t.nFeatures),
		scratch:  make([]int32, 0, n),
		counts:   make([]int, t.nClasses),
		leftCnt:  make([]int, t.nClasses),
		rightCnt: make([]int, t.nClasses),
	}
	for f := range g.cols {
		v, col := make([]float64, n), make([]int32, n)
		for i := range v {
			v[i], col[i] = x[i][f], int32(i)
		}
		g.vals[f], g.cols[f] = v, col
	}
	return g
}

// sortColumns orders every column by (value, index) with a stable LSD
// radix sort over order-preserving keys: the columns start in index order,
// so stability breaks ties by index. The root calls it once it knows it may
// split, so a pure or too-small training set costs no sort.
func (g *grower) sortColumns() {
	n := len(g.y)
	keys, nextKeys := make([]uint64, n), make([]uint64, n)
	next := make([]int32, n)
	for f, col := range g.cols {
		var hist [8][256]int
		for i, v := range g.vals[f] {
			keys[i] = sortKey(v)
			for d := range hist {
				hist[d][byte(keys[i]>>(8*d))]++
			}
		}
		for d := range hist {
			if hist[d][byte(keys[0]>>(8*d))] == n {
				continue // every key has the same byte d
			}
			pos := 0
			for b, c := range hist[d] {
				hist[d][b], pos = pos, pos+c
			}
			for k, i := range col {
				b := byte(keys[k] >> (8 * d))
				next[hist[d][b]], nextKeys[hist[d][b]] = i, keys[k]
				hist[d][b]++
			}
			copy(col, next)
			keys, nextKeys = nextKeys, keys
		}
	}
}

// sortKey maps v to a key whose unsigned order is v's numeric order, with
// -0 and +0 equal as they are under <.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// impurity computes the node impurity from class counts.
func impurity(counts []int, total int, c Criterion) float64 {
	if total == 0 {
		return 0
	}
	switch c {
	case Entropy:
		e := 0.0
		for _, n := range counts {
			if n == 0 {
				continue
			}
			p := float64(n) / float64(total)
			e -= p * math.Log2(p)
		}
		return e
	default:
		g := 1.0
		for _, n := range counts {
			p := float64(n) / float64(total)
			g -= p * p
		}
		return g
	}
}

func majority(counts []int) int {
	best, bn := 0, -1
	for c, n := range counts {
		if n > bn {
			best, bn = c, n
		}
	}
	return best
}

// build grows the subtree over the samples in segment [lo,hi) of the
// columns and returns its node id. Splits fall only between distinct
// values, and the class counts left of such a boundary do not depend on
// how tied values are ordered, so the tree equals that of sorting every
// node's samples afresh.
func (g *grower) build(lo, hi, depth int) int {
	t, y, n := g.t, g.y, hi-lo
	counts, leftCnt, rightCnt := g.counts, g.leftCnt, g.rightCnt
	clear(counts)
	for _, i := range g.cols[0][lo:hi] {
		counts[y[i]]++
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, label: majority(counts), samples: n})

	imp := impurity(counts, n, t.params.Criterion)
	if imp == 0 || n < 2*t.params.MinSamplesLeaf ||
		(t.params.MaxDepth > 0 && depth >= t.params.MaxDepth) {
		return id
	}

	if depth == 0 {
		g.sortColumns()
	}
	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	for f, v := range g.vals {
		sorted := g.cols[f][lo:hi]
		clear(leftCnt)
		for k := 0; k < n-1; k++ {
			leftCnt[y[sorted[k]]]++
			nl := k + 1
			nr := n - nl
			if nl < t.params.MinSamplesLeaf || nr < t.params.MinSamplesLeaf {
				continue
			}
			v0, v1 := v[sorted[k]], v[sorted[k+1]]
			if v0 == v1 {
				continue // cannot split between equal values
			}
			for c := range rightCnt {
				rightCnt[c] = counts[c] - leftCnt[c]
			}
			gain := imp -
				(float64(nl)*impurity(leftCnt, nl, t.params.Criterion)+
					float64(nr)*impurity(rightCnt, nr, t.params.Criterion))/float64(n)
			if gain > bestGain {
				bestFeat, bestThr, bestGain = f, (v0+v1)/2, gain
			}
		}
	}
	if bestFeat < 0 {
		return id
	}

	nl := g.partition(lo, hi, bestFeat, bestThr)
	if nl == 0 || nl == n {
		return id
	}
	t.importance[bestFeat] += float64(n) * bestGain
	l := g.build(lo, lo+nl, depth+1)
	r := g.build(lo+nl, hi, depth+1)
	t.nodes[id].feature = bestFeat
	t.nodes[id].threshold = bestThr
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
}

// partition splits segment [lo,hi) of every column stably into the samples
// with feature feat ≤ thr followed by the rest, keeping both halves
// sorted, and returns the size of the first half. The test is applied per
// sample rather than by boundary position: a midpoint threshold can round
// onto the larger of two neighbouring values.
func (g *grower) partition(lo, hi, feat int, thr float64) int {
	v := g.vals[feat]
	nl := 0
	for _, col := range g.cols {
		seg, right := col[lo:hi], g.scratch[:0]
		nl = 0
		for _, i := range seg {
			if v[i] <= thr {
				seg[nl] = i
				nl++
			} else {
				right = append(right, i)
			}
		}
		copy(seg[nl:], right)
	}
	return nl
}

// Predict returns the predicted class of x.
func (t *Tree) Predict(x []float64) int {
	id := 0
	for {
		n := t.nodes[id]
		if n.feature < 0 {
			return n.label
		}
		if x[n.feature] <= n.threshold {
			id = n.left
		} else {
			id = n.right
		}
	}
}

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int {
	var d func(id int) int
	d = func(id int) int {
		n := t.nodes[id]
		if n.feature < 0 {
			return 0
		}
		l, r := d(n.left), d(n.right)
		if r > l {
			l = r
		}
		return 1 + l
	}
	return d(0)
}

// NodeCount returns the total node count.
func (t *Tree) NodeCount() int { return len(t.nodes) }

// NumFeatures returns the feature-vector width the tree was trained on.
func (t *Tree) NumFeatures() int { return t.nFeatures }

// Validate checks the structural invariants Predict depends on, so a tree
// deserialized from an untrusted (possibly corrupted) file cannot read out
// of bounds, loop forever, or emit labels outside its class range. Trees
// built by TrainTree always pass.
func (t *Tree) Validate() error {
	if t.nFeatures < 1 || t.nClasses < 1 {
		return fmt.Errorf("ml: tree declares %d features, %d classes", t.nFeatures, t.nClasses)
	}
	if len(t.nodes) == 0 {
		return fmt.Errorf("ml: tree has no nodes")
	}
	if t.importance != nil && len(t.importance) != t.nFeatures {
		return fmt.Errorf("ml: importance length %d != %d features", len(t.importance), t.nFeatures)
	}
	if t.params.MaxDepth < 0 || t.params.MinSamplesLeaf < 0 {
		return fmt.Errorf("ml: negative hyperparameters (max depth %d, min leaf %d)", t.params.MaxDepth, t.params.MinSamplesLeaf)
	}
	for i, n := range t.nodes {
		if n.feature < 0 {
			// Leaf: Predict returns its label directly.
			if n.label < 0 || n.label >= t.nClasses {
				return fmt.Errorf("ml: leaf %d labels class %d of %d", i, n.label, t.nClasses)
			}
			continue
		}
		if n.feature >= t.nFeatures {
			return fmt.Errorf("ml: node %d splits on feature %d of %d", i, n.feature, t.nFeatures)
		}
		if math.IsNaN(n.threshold) || math.IsInf(n.threshold, 0) {
			return fmt.Errorf("ml: node %d has non-finite threshold", i)
		}
		// Children must point strictly forward: this single invariant makes
		// the structure acyclic, so Predict terminates on any input.
		if n.left <= i || n.left >= len(t.nodes) || n.right <= i || n.right >= len(t.nodes) {
			return fmt.Errorf("ml: node %d has out-of-order children (%d, %d)", i, n.left, n.right)
		}
	}
	return nil
}

// FeatureImportance returns the normalized Gini importance per feature
// (total impurity reduction contributed by splits on that feature), the
// quantity Figure 10 reports.
func (t *Tree) FeatureImportance() []float64 {
	out := make([]float64, t.nFeatures)
	total := 0.0
	for _, v := range t.importance {
		total += v
	}
	if total == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / total
	}
	return out
}

// Prune performs reduced-error pruning against a validation set: any
// internal node whose collapse does not reduce validation accuracy becomes
// a leaf. It returns the number of collapsed nodes.
func (t *Tree) Prune(xVal [][]float64, yVal []int) int {
	if len(xVal) == 0 {
		return 0
	}
	pruned := 0
	for {
		base := Accuracy(t, xVal, yVal)
		improved := false
		for id := range t.nodes {
			n := &t.nodes[id]
			if n.feature < 0 {
				continue
			}
			save := *n
			n.feature = -1
			if Accuracy(t, xVal, yVal) >= base {
				pruned++
				improved = true
			} else {
				*n = save
			}
		}
		if !improved {
			return pruned
		}
	}
}

// Accuracy computes classification accuracy of any classifier on a set.
func Accuracy(c Classifier, x [][]float64, y []int) float64 {
	if len(x) == 0 {
		return 0
	}
	ok := 0
	for i := range x {
		if c.Predict(x[i]) == y[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(x))
}
