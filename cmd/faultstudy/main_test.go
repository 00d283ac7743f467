package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/report"
)

var quickArgs = []string{"-quick", "-policy", "CP_SD", "-mix", "1", "-seed", "11",
	"-target", "0.5", "-step", "0.125", "-check_every", "5000",
	"-warmup", "150000", "-measure", "150000"}

func quickOpts(t *testing.T, extra ...string) studyOptions {
	t.Helper()
	opt, err := parseArgs(append(append([]string(nil), quickArgs...), extra...))
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestStudyDeterminism: two same-seed studies must emit bit-identical
// reports — the acceptance bar for replayable fault campaigns.
func TestStudyDeterminism(t *testing.T) {
	render := func() string {
		rep, violations, err := runStudy(quickOpts(t))
		if err != nil {
			t.Fatal(err)
		}
		if violations != 0 {
			t.Fatalf("%d invariant violations during degradation", violations)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf, report.JSON); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same-seed reports differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestStudyReachesTarget(t *testing.T) {
	rep, violations, err := runStudy(quickOpts(t))
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d violations", violations)
	}
	var finalCap float64
	var steps int
	for _, f := range rep.Fields() {
		switch f.Key {
		case "final_capacity":
			finalCap = f.Value.(float64)
		case "campaign_steps":
			steps = f.Value.(int)
		}
	}
	if finalCap > 0.5 {
		t.Fatalf("final capacity %.3f, want <= 0.5", finalCap)
	}
	if steps < 3 {
		t.Fatalf("only %d campaign steps", steps)
	}
	// Degradation table must have the baseline plus one row per step.
	tabs := rep.Tables()
	if len(tabs) == 0 || tabs[0].Rows() != steps+1 {
		t.Fatalf("degradation table has %d rows, want %d", tabs[0].Rows(), steps+1)
	}
}

func TestStudyRejectsBadConfig(t *testing.T) {
	if _, err := parseArgs(append(append([]string(nil), quickArgs...), "-policy", "NOPE")); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("bad policy not rejected: %v", err)
	}
	if _, _, err := runStudy(quickOpts(t, "-step", "0")); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, _, err := runStudy(quickOpts(t, "-spec", "does-not-exist.json")); err == nil {
		t.Fatal("missing spec accepted")
	}
}
