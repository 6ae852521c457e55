package config

import "fmt"

// CostClass is the reconfiguration-cost taxonomy of Section 3.4, extended
// with an Algorithmic class for the runtime dataflow/format axes.
type CostClass int

const (
	// NoChange means the parameter value is unchanged.
	NoChange CostClass = iota
	// SuperFine parameters (clock, prefetcher, cache-capacity increase,
	// scheduling policy) incur a small fixed cost and no cache flush.
	SuperFine
	// Fine parameters (sharing modes, cache-capacity decrease) require at
	// most a cache flush but no code change.
	Fine
	// Algorithmic parameters (dataflow, storage format) switch the kernel's
	// execution strategy at runtime: the change costs a fixed swap charge, a
	// data-dependent conversion proportional to the operand's nonzero count,
	// and a full flush of both cache levels — the working set of the old
	// strategy is worthless to the new one.
	Algorithmic
	// Coarse parameters (memory type) require a code change and a flush; in
	// this work they are fixed at compile time.
	Coarse
)

// String names the cost class.
func (c CostClass) String() string {
	switch c {
	case NoChange:
		return "none"
	case SuperFine:
		return "super-fine"
	case Fine:
		return "fine"
	case Algorithmic:
		return "algorithmic"
	case Coarse:
		return "coarse"
	default:
		return "unknown"
	}
}

// SuperFineCycles is the fixed cost charged for a super-fine
// reconfiguration (Section 5.2: 100 cycles).
const SuperFineCycles = 100

// AlgoSwapCycles is the fixed cost of switching the kernel's execution
// strategy (dataflow or format): draining in-flight work units and
// redirecting the LCPs to the new code path.
const AlgoSwapCycles = 400

// ConversionCyclesPerNNZ returns the per-nonzero cycle cost of converting
// the A operand between storage formats. CSR↔CSC is a full counting-sort
// transpose of the index structure (read + histogram + scatter);
// compressed→COO only expands pointers into explicit coordinates;
// COO→compressed must re-bucket every coordinate.
func ConversionCyclesPerNNZ(from, to int) float64 {
	if from == to {
		return 0
	}
	switch {
	case from == FmtCOO:
		return 4 // COO → CSR/CSC: bucket coordinates into compressed rows/cols
	case to == FmtCOO:
		return 2 // CSR/CSC → COO: expand pointer array into coordinates
	default:
		return 6 // CSR ↔ CSC: counting-sort transpose of the index structure
	}
}

// TransitionClass returns the cost class of changing parameter p from value
// index from to value index to. Capacity increases are super-fine because
// the sub-banked R-DCache implementation can grow without invalidating
// resident lines (Section 5.2); decreases and sharing-mode changes require
// a flush (fine); dataflow and format switches are algorithmic; the
// scheduling policy only changes LCP bookkeeping (super-fine); the L1
// memory type is coarse.
func TransitionClass(p Param, from, to int) CostClass {
	if from == to {
		return NoChange
	}
	switch p {
	case L1Type:
		return Coarse
	case L1Share, L2Share:
		return Fine
	case L1Cap, L2Cap:
		if to > from {
			return SuperFine
		}
		return Fine
	case Clock, Prefetch, SchedPolicy:
		return SuperFine
	case Dataflow, Format:
		return Algorithmic
	default:
		return Coarse
	}
}

// Transition describes the cost structure of moving between two
// configurations: which levels must be flushed and how many fixed
// super-fine charges apply. The actual cycle/energy cost of a flush depends
// on machine state (dirty lines, clock, bandwidth) and is computed by the
// sim package from this description.
type Transition struct {
	// SuperFineChanges counts parameters reconfigured at fixed cost.
	SuperFineChanges int
	// FlushL1 indicates the L1 banks must be flushed to L2 (L1 sharing
	// change, L1 capacity decrease, or any algorithmic switch).
	FlushL1 bool
	// FlushL2 indicates the L2 banks must be flushed to main memory (L2
	// sharing change, L2 capacity decrease, or any algorithmic switch).
	FlushL2 bool
	// Algorithmic indicates the dataflow or format changed: the kernel's
	// execution strategy is swapped at runtime.
	Algorithmic bool
	// DataflowChanged indicates the SpMSpM dataflow changed.
	DataflowChanged bool
	// FormatChanged indicates the A-operand storage format changed;
	// FormatFrom/FormatTo record the endpoints for conversion costing.
	FormatChanged        bool
	FormatFrom, FormatTo int
	// Coarse indicates a compile-time-only parameter changed; runtime
	// transitions with Coarse set are invalid.
	Coarse bool
	// Changed is the set of parameters that differ.
	Changed ParamSet
}

// ParamSet is a set of parameters, one bit per Param. It is a value, so
// Classify builds a Transition without allocating.
type ParamSet uint16

// Every parameter has a bit in a ParamSet: the conversion does not compile
// once NumParams exceeds 16.
const _ = uint(16 - NumParams)

// Has reports whether p is in the set.
func (s ParamSet) Has(p Param) bool { return s&(1<<p) != 0 }

// String lists the set's parameters in order, as their []Param prints:
// "[l1-type clock]".
func (s ParamSet) String() string {
	var ps []Param
	for p := Param(0); p < NumParams; p++ {
		if s.Has(p) {
			ps = append(ps, p)
		}
	}
	return fmt.Sprint(ps)
}

// Classify computes the Transition between two configurations.
func Classify(from, to Config) Transition {
	var t Transition
	for p := Param(0); p < NumParams; p++ {
		cls := TransitionClass(p, from[p], to[p])
		if cls == NoChange {
			continue
		}
		t.Changed |= 1 << p
		switch cls {
		case SuperFine:
			t.SuperFineChanges++
		case Fine:
			switch p {
			case L1Share, L1Cap:
				t.FlushL1 = true
			case L2Share, L2Cap:
				t.FlushL2 = true
			}
		case Algorithmic:
			t.Algorithmic = true
			t.FlushL1 = true
			t.FlushL2 = true
			switch p {
			case Dataflow:
				t.DataflowChanged = true
			case Format:
				t.FormatChanged = true
				t.FormatFrom, t.FormatTo = from[p], to[p]
			}
		case Coarse:
			t.Coarse = true
		}
	}
	return t
}

// ConversionCycles returns the data-dependent cycle cost of the
// transition's algorithmic component for an operand with nnz nonzeros: a
// fixed strategy-swap charge per algorithmic axis changed plus the
// per-nonzero format-conversion work. Zero when nothing algorithmic
// changed.
func (t Transition) ConversionCycles(nnz int) float64 {
	if !t.Algorithmic {
		return 0
	}
	cycles := 0.0
	if t.DataflowChanged {
		cycles += AlgoSwapCycles
	}
	if t.FormatChanged {
		cycles += AlgoSwapCycles
		cycles += ConversionCyclesPerNNZ(t.FormatFrom, t.FormatTo) * float64(nnz)
	}
	return cycles
}

// IsNoop reports whether the transition changes nothing.
func (t Transition) IsNoop() bool { return t.Changed == 0 }
