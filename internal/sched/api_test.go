package sched

import (
	"reflect"
	"testing"
)

// TestFingerprintKeySensitivity perturbs every JobRequest field one at a
// time. A field that shapes the result must change the key; the three that
// cannot (the deadline, and who submitted the job at what priority) must
// not. A field added to JobRequest is covered automatically, so it has to
// join the key or be listed here as deliberately excluded.
func TestFingerprintKeySensitivity(t *testing.T) {
	excluded := map[string]bool{"TimeoutSec": true, "Tenant": true, "Priority": true}
	base := JobRequest{
		Mode: ModeBatch, Kernel: "spmspm", Matrix: "R04", MatrixMarket: "%%MatrixMarket",
		Scale: "small", Seed: 3, OptMode: "pp", Policy: "hybrid", Tolerance: 0.25,
		Config: "max", Faults: "nan=0.1", Count: 2, Counters: true,
		TimeoutSec: 10, Tenant: "acme", Priority: "interactive",
	}
	key := base.Fingerprint()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		r := base
		v := reflect.ValueOf(&r).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("field %s: no perturbation for kind %s", f.Name, v.Kind())
		}
		changed := r.Fingerprint() != key
		if excluded[f.Name] && changed {
			t.Errorf("field %s changes the fingerprint, but cannot change the result", f.Name)
		}
		if !excluded[f.Name] && !changed {
			t.Errorf("field %s shapes the result but does not change the fingerprint", f.Name)
		}
	}
}

// TestValidateOneSpellingOneKey checks that Validate leaves a job one
// spelling: filled-in defaults key like the explicit values, and the long
// mode names the CLI also accepts are not accepted on the wire, where they
// would give one job a second key.
func TestValidateOneSpellingOneKey(t *testing.T) {
	implicit := JobRequest{}
	explicit := JobRequest{Mode: ModeAdaptive, Kernel: "spmspv", Matrix: "R04", Scale: "test", OptMode: "ee", Config: "baseline"}
	for _, r := range []*JobRequest{&implicit, &explicit} {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatalf("defaults key differently from their explicit values:\n%+v\n%+v", implicit, explicit)
	}
	for _, name := range []string{"energy-efficient", "power-performance", "EE"} {
		r := JobRequest{OptMode: name}
		if err := r.Validate(); err == nil {
			t.Errorf("opt_mode %q accepted", name)
		}
	}
}
