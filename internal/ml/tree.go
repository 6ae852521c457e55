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
	"sort"
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
	t.build(x, y, idx, 0)
	return t, nil
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

// build grows the subtree over the samples in idx and returns its node id.
func (t *Tree) build(x [][]float64, y []int, idx []int, depth int) int {
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
				continue // cannot split between equal values
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
	l := t.build(x, y, li, depth+1)
	r := t.build(x, y, ri, depth+1)
	t.nodes[id].feature = bestFeat
	t.nodes[id].threshold = bestThr
	t.nodes[id].left = l
	t.nodes[id].right = r
	return id
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
