package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenArgs is a fixed quick run with wear-feedback coloring on the
// multi-tenant interference mix: small windows keep it test-speed while
// still spanning several epochs, so the per-set heat columns carry real
// remaps.
var goldenArgs = []string{"-quick", "-policy", "CP_SD", "-mix", "12", "-seed", "42",
	"-capacity", "0.5", "-warmup", "100000", "-measure", "400000",
	"-coloring", "wear:interval=1,pairs=16"}

func goldenOptions(t *testing.T) options {
	t.Helper()
	opt, err := parseArgs(goldenArgs)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenWearmap pins the wearmap report layout — the field set
// (including the sim_wear_* pre-aging family) and the per-set heat
// tables — and, because the golden bytes embed the measured values, the
// end-to-end determinism of the measure-then-age pipeline.
func TestGoldenWearmap(t *testing.T) {
	rep, err := run(goldenOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file   string
		format report.Format
	}{
		{"golden_quick.txt", report.Text},
		{"golden_quick.json", report.JSON},
	} {
		var buf bytes.Buffer
		if err := rep.Write(&buf, tc.format); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.file, buf.Bytes())
	}
}

// TestWearmapColumns asserts the report shape directly, independent of
// the golden bytes: the wear-variation field family and the two per-set
// heat tables with their column sets.
func TestWearmapColumns(t *testing.T) {
	rep, err := run(goldenOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf, report.Text); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"wear_interset_cov", "wear_intraset_cov", "wear_gini",
		"sim_wear_interset_cov", "sim_wear_intraset_cov", "sim_wear_gini",
		"coloring", "set wear (row mean)", "hottest sets", "mean_wear", "vs_mean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestWearmapRejects pins the error paths: an SRAM-only policy has no
// NVM array to map, and a malformed coloring spec must fail before the
// simulation is built.
func TestWearmapRejects(t *testing.T) {
	opt, err := parseArgs(append(goldenArgs, "-policy", "SRAM16", "-coloring", "off"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(opt); err == nil {
		t.Fatal("SRAM-only policy produced a wear map")
	}
	if _, err := parseArgs(append(goldenArgs, "-coloring", "wear:pairs=bogus")); err == nil {
		t.Fatal("malformed coloring spec accepted")
	}
}
