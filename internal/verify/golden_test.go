package verify

import (
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-bless the golden corpus from current behavior")

// TestGolden replays every corpus scenario and compares against the
// committed golden records. Run with -update after an intentional
// behavioral change to re-bless the corpus (and review the diff in git).
func TestGolden(t *testing.T) {
	for _, s := range Corpus() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			out, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			got := Golden(out)
			if *update {
				if err := WriteGolden("golden", got); err != nil {
					t.Fatal(err)
				}
				t.Logf("re-blessed golden/%s.json (%d epochs)", s.Name, len(got.Epochs))
				return
			}
			committed, err := LoadGolden(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if lines := Diff(committed, got, 20); len(lines) > 0 {
				t.Errorf("golden mismatch (intentional change? run `go test ./internal/verify -run TestGolden -update`):\n%s",
					strings.Join(lines, "\n"))
			}
		})
	}
}

// TestGoldenCoversCorpus pins the committed golden set to exactly the
// corpus: a scenario added without re-blessing, or a stale orphaned golden
// file, both fail.
func TestGoldenCoversCorpus(t *testing.T) {
	if *update {
		t.Skip("updating")
	}
	var want []string
	for _, s := range Corpus() {
		want = append(want, s.Name)
	}
	sort.Strings(want)
	got := GoldenNames()
	if len(got) != len(want) {
		t.Fatalf("committed golden files %v\nwant exactly the corpus %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("committed golden files %v\nwant exactly the corpus %v", got, want)
		}
	}
}

// TestGoldenDeterministic replays one scenario of each schedule kind twice
// and requires digest-identical outcomes — the property the whole golden
// pillar rests on.
func TestGoldenDeterministic(t *testing.T) {
	for _, name := range []string{"spmspv-uniform-baseline", "spmspv-banded-alternate", "spmspv-uniform-controller-ee"} {
		s, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if ga, gb := Golden(a), Golden(b); ga.TotalDigest != gb.TotalDigest {
			t.Errorf("%s: two identical runs digested %s and %s", name, ga.TotalDigest, gb.TotalDigest)
		}
	}
}

// TestDiffNamesScenario exercises the diff formatter on a corrupted record:
// every reported line must name the scenario, and a digest flip must be
// reported with its context fields.
func TestDiffNamesScenario(t *testing.T) {
	s, err := ScenarioByName("spmspv-uniform-baseline")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	g := Golden(out)
	bad := *g
	bad.Epochs = append([]EpochGold(nil), g.Epochs...)
	bad.Epochs[0].Digest = "0000000000000000"
	bad.TotalDigest = "ffffffffffffffff"
	lines := Diff(&bad, g, 0)
	if len(lines) != 2 {
		t.Fatalf("corrupting one epoch digest and the total digest produced %d diff lines: %v", len(lines), lines)
	}
	for _, l := range lines {
		if !strings.Contains(l, s.Name) {
			t.Errorf("diff line does not name the scenario: %q", l)
		}
	}
	if !strings.Contains(lines[0], "epoch 0") {
		t.Errorf("diff line does not name the epoch: %q", lines[0])
	}

	// Truncation names the scenario too and bounds the output.
	bad2 := *g
	bad2.Epochs = nil
	bad2.Schedule = "other"
	bad2.Reconfigs = 99
	if got := Diff(&bad2, g, 1); len(got) != 2 || !strings.Contains(got[1], "more mismatches") {
		t.Errorf("maxLines=1 returned %v", got)
	}
}

// TestResilientResumeMatchesUninterrupted requires the resumed resilient
// scenario (stopped mid-run with a checkpoint, resumed on a fresh machine)
// to reproduce the uninterrupted run epoch for epoch, and pins the
// resilience report both runs end with.
func TestResilientResumeMatchesUninterrupted(t *testing.T) {
	const wantReport = "repairs=27 dropped=2 rejected=1 degraded=9 fallbacks=3 fallback-epochs=9 permanent=true retries=14 reconfig-failures=2"
	var golds []*Gold
	for _, name := range []string{"spmspv-uniform-resilient-faults", "spmspv-uniform-resilient-resume"} {
		s, err := ScenarioByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runModelDriven(s, s.Schedule.(modelSchedule))
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Resilience
		rep.Checkpoints = 0 // the interrupted run wrote one; the other none
		if rep.String() != wantReport {
			t.Errorf("%s: resilience report\n got %s\nwant %s", name, rep, wantReport)
		}
		g := Golden(outcome(s, res))
		g.Scenario, g.Schedule = "", ""
		golds = append(golds, g)
	}
	if !reflect.DeepEqual(golds[0], golds[1]) {
		t.Errorf("resumed run differs from the uninterrupted one:\n%s", strings.Join(Diff(golds[0], golds[1], 20), "\n"))
	}
}
