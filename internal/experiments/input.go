package experiments

import (
	"fmt"
	"math/rand"

	"sparseadapt/internal/graph"
	"sparseadapt/internal/host"
	"sparseadapt/internal/kernels"
	"sparseadapt/internal/matrix"
	"sparseadapt/internal/power"
)

// Input is the kernel invocation a run names: one kernel over one matrix
// at one scale. The CLI's run and oracle commands and the daemon all build
// their workloads here, so a job submitted over HTTP runs exactly the
// workload the equivalent local run does.
type Input struct {
	// ModelKernel is the kernel whose model steers the run (see
	// ModelKernel).
	ModelKernel string

	kernel string // spmspm|spmspv|bfs|sssp
	name   string
	chip   power.Chip
	a      *matrix.CSC
	b      *matrix.CSR       // SpMSpM's B operand
	x      *matrix.SparseVec // SpMSpV's input vector
}

// ModelKernel maps a kernel name to the kernel whose model steers it:
// SpMSpM and SpMSpV steer themselves, and the graph traversals (bfs,
// sssp) are SpMSpV-shaped and reuse its model (Section 5.2).
func ModelKernel(kernel string) (string, error) {
	switch kernel {
	case "spmspm", "spmspv":
		return kernel, nil
	case "bfs", "sssp":
		return "spmspv", nil
	}
	return "", fmt.Errorf("unknown kernel %q (spmspm|spmspv|bfs|sssp)", kernel)
}

// NewInput builds kernel's operands over dataset entry id, generated at
// sc's matrix scale and seed, or over am when it is non-nil (an uploaded
// matrix; id then only labels the source). SpMSpM multiplies A by its own
// transpose; SpMSpV's input vector is drawn from sc.Seed+1.
func NewInput(sc Scale, kernel, id string, am *matrix.COO) (*Input, error) {
	modelKernel, err := ModelKernel(kernel)
	if err != nil {
		return nil, err
	}
	if am == nil {
		entry, err := matrix.Entry(id)
		if err != nil {
			return nil, err
		}
		am = entry.Generate(sc.Matrix, sc.Seed)
	}
	in := &Input{ModelKernel: modelKernel, kernel: kernel, name: id, chip: sc.Chip, a: am.ToCSC()}
	switch kernel {
	case "spmspm":
		in.b = am.ToCSR().Transpose()
	case "spmspv":
		in.x = matrix.RandomVec(rand.New(rand.NewSource(sc.Seed+1)), in.a.Cols, 0.5)
	}
	return in, nil
}

// Offload traces the kernel's natural algorithm variant and returns it
// with the bytes the host streams to the device and back (Section 3.1).
func (in *Input) Offload() (host.Offload, error) {
	nGPE, nLCP := in.chip.NGPE(), in.chip.Tiles
	dim := in.a.Cols
	off := host.Offload{BytesIn: host.InputBytes(in.a.NNZ(), dim)}
	var err error
	switch in.kernel {
	case "spmspm":
		var out *matrix.CSR
		out, off.Workload, err = kernels.SpMSpM(in.a, in.b, nGPE, nLCP)
		off.BytesIn *= 2 // both operands stream in
		if out != nil {
			off.BytesOut = host.InputBytes(out.NNZ(), dim)
		}
	case "spmspv":
		var y *matrix.SparseVec
		y, off.Workload, err = kernels.SpMSpV(in.a, in.x, nGPE, nLCP)
		off.BytesIn += host.InputBytes(in.x.NNZ(), dim)
		if y != nil {
			off.BytesOut = y.NNZ() * 12
		}
	case "bfs":
		_, off.Workload, err = graph.BFS(in.a, 0, nGPE, nLCP)
		off.BytesOut = dim * 8
	case "sssp":
		_, off.Workload, err = graph.SSSP(in.a, 0, nGPE, nLCP)
		off.BytesOut = dim * 8
	}
	if err != nil {
		return host.Offload{}, err
	}
	return off, nil
}

// Source returns the kernel's algorithm-variant source (dataflow, format
// and scheduling axes), labelled with the matrix ID. Only SpMSpM and
// SpMSpV have variants.
func (in *Input) Source() (*kernels.Source, error) {
	switch {
	case in.b != nil:
		return kernels.NewSpMSpMSource(in.name, in.a, in.b, in.chip.NGPE(), in.chip.Tiles), nil
	case in.x != nil:
		return kernels.NewSpMSpVSource(in.name, in.a, in.x, in.chip.NGPE(), in.chip.Tiles), nil
	}
	return nil, fmt.Errorf("kernel %q has no dataflow/format variants (spmspm|spmspv only)", in.kernel)
}
