package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOracleTables runs the oracle study on a small recording and compares
// its report byte for byte with the reference in testdata, which holds the
// output of the standalone oracle tool this subcommand replaced: every
// scheme row of both optimization modes, and the ideal static config.
func TestOracleTables(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"oracle_spmspv.txt", []string{"-kernel", "spmspv", "-workers", "2"}},
		{"oracle_spmspm_inner.txt", []string{"-kernel", "spmspm", "-dataflow", "inner", "-workers", "1"}},
	} {
		args := append([]string{"oracle", "-matrix", "R04", "-samples", "6", "-scale", "test"}, tc.args...)
		out, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, out)
		}
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if out != string(want) {
			t.Errorf("%v output differs from %s:\ngot:\n%s\nwant:\n%s", args, tc.golden, out, want)
		}
	}
}

func TestOracleBadFlags(t *testing.T) {
	out, code := runCLI(t, "oracle", "-samples", "0", "-format", "ELL", "-scale", "test")
	if code != 2 || !strings.Contains(out, "-samples") || !strings.Contains(out, "-format") {
		t.Fatalf("bad flags exited %d, want 2 listing both: %s", code, out)
	}
	if out, code := runCLI(t, "oracle", "-workers", "-1", "-scale", "test"); code != 2 {
		t.Fatalf("-workers -1 exited %d, want 2: %s", code, out)
	}
	if out, code := runCLI(t, "oracle", "-kernel", "bfs", "-scale", "test"); code == 0 {
		t.Fatalf("oracle accepted a kernel without variants: %s", out)
	}
}

// TestTrainDatasetUnchanged pins the dataset train writes under -seed,
// -dataflow and -format: the digests are those of the files the
// standalone dataset generator this subcommand replaced wrote for the
// same sweep, except the -dataflow inner row, whose best-dataflow labels
// now name the pinned value (inner) rather than outer.
func TestTrainDatasetUnchanged(t *testing.T) {
	for _, tc := range []struct {
		args      []string
		csv, json string
	}{
		{[]string{"-scale", "0.1"},
			"a7cfc23fa9fdc1c861787ce39ca5bbbbdef4f842e9e0bb0eb226e830424088d5",
			"ad5e744fe675cd96ae63b09350e4593a9481c3cac3efcd93c815bb0000955239"},
		{[]string{"-scale", "0.1", "-seed", "1", "-format", "csr"},
			"0d0182ae04698ed19149991c77321876b4d677e95ded4216986bb9e6b76f2649",
			"a4ad8c5155335eca7d248ab950ece3f6e6485451cdae85c293dd881d4ce4309b"},
		{[]string{"-kernel", "spmspm", "-scale", "0.1", "-seed", "2", "-dataflow", "inner"},
			"63b40fa6565241e8a83a4a9a44d2f1af08738f9ce3651ddc34f73d4f210230f4",
			"40668700a515074a74f64a69d55d4b936c141350fd9a308ed74d57306ce82016"},
	} {
		dir := t.TempDir()
		csvPath, jsonPath := filepath.Join(dir, "d.csv"), filepath.Join(dir, "d.json")
		args := append([]string{"train", "-csv", csvPath, "-dataset", jsonPath, "-out", filepath.Join(dir, "m.json")}, tc.args...)
		if out, code := runCLI(t, args...); code != 0 {
			t.Fatalf("%v exited %d: %s", args, code, out)
		}
		for path, want := range map[string]string{csvPath: tc.csv, jsonPath: tc.json} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
				t.Errorf("%v: %s digest %x, want %s", tc.args, filepath.Base(path), sum, want)
			}
		}
	}
	if out, code := runCLI(t, "train", "-dataflow", "diagonal"); code != 2 {
		t.Fatalf("bad -dataflow exited %d, want 2: %s", code, out)
	}
}
