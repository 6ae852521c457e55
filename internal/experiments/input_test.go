package experiments

import (
	"testing"
)

func TestScaleByName(t *testing.T) {
	for name, want := range map[string]Scale{"test": TestScale(), "small": SmallScale(), "paper": PaperScale()} {
		if got, err := ScaleByName(name); err != nil || got != want {
			t.Errorf("ScaleByName(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Error("unknown scale accepted")
	}
}

// TestNewInput checks the kernel vocabulary of the one workload builder:
// which model steers each kernel, which kernels have variant sources, and
// that two builds of one run are the same workload.
func TestNewInput(t *testing.T) {
	sc := TestScale()
	for kernel, model := range map[string]string{"spmspm": "spmspm", "spmspv": "spmspv", "bfs": "spmspv", "sssp": "spmspv"} {
		in, err := NewInput(sc, kernel, "R04", nil)
		if err != nil {
			t.Fatal(err)
		}
		if in.ModelKernel != model {
			t.Errorf("%s steered by the %s model, want %s", kernel, in.ModelKernel, model)
		}
		off, err := in.Offload()
		if err != nil {
			t.Fatal(err)
		}
		if off.BytesIn <= 0 || off.BytesOut <= 0 || off.Workload.Trace == nil {
			t.Errorf("%s offload %+v", kernel, off)
		}
		again, _ := NewInput(sc, kernel, "R04", nil)
		off2, err := again.Offload()
		if err != nil {
			t.Fatal(err)
		}
		if off.Workload.Trace.Fingerprint() != off2.Workload.Trace.Fingerprint() || off.BytesIn != off2.BytesIn || off.BytesOut != off2.BytesOut {
			t.Errorf("%s: two builds of one run differ", kernel)
		}
		_, err = in.Source()
		if hasVariants := model == kernel; (err == nil) != hasVariants {
			t.Errorf("%s: Source error %v", kernel, err)
		}
	}
	if _, err := NewInput(sc, "pagerank", "R04", nil); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := NewInput(sc, "spmspv", "R99", nil); err == nil {
		t.Error("unknown matrix accepted")
	}
}
