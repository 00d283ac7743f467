package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenRuns drives every subcommand at tiny windows. The golden files
// hold the output of the per-figure commands figures replaced, run with
// the same settings, so they pin byte identity with those commands.
var goldenRuns = []struct {
	file string
	args []string
}{
	{"tables.txt", []string{"tables"}},
	{"fig2.txt", []string{"fig2", "-samples", "500"}},
	{"fig67.txt", []string{"fig67", "-mixes", "1", "-warmup", "100000", "-measure", "300000", "-llc_sets", "64"}},
	{"fig8.txt", []string{"fig8", "-mixes", "1", "-llc_sets", "64", "-epoch_cycles", "50000"}},
	{"epochsweep.txt", []string{"epochsweep", "-mixes", "1", "-warmup", "100000", "-measure", "300000", "-llc_sets", "64"}},
	{"fig9.txt", []string{"fig9", "-mixes", "1", "-warmup", "100000", "-measure", "300000"}},
	{"energy.txt", []string{"energy", "-mixes", "1", "-warmup", "100000", "-measure", "300000"}},
	{"appstudy.txt", []string{"appstudy", "-warmup", "50000", "-measure", "200000"}},
	{"appstudy.csv", []string{"appstudy", "-warmup", "50000", "-measure", "200000", "-csv"}},
}

func TestGoldenFigures(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(g.args, &buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", g.file)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run go test -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%v drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", g.args, g.file, buf.Bytes(), want)
			}
		})
	}
}

// TestSubcommandsCovered keeps the golden runs in step with the
// subcommand table.
func TestSubcommandsCovered(t *testing.T) {
	covered := map[string]bool{}
	for _, g := range goldenRuns {
		covered[g.args[0]] = true
	}
	for _, s := range subcommands {
		if !covered[s.name] {
			t.Errorf("subcommand %s has no golden run", s.name)
		}
	}
}

func TestRejects(t *testing.T) {
	for _, args := range [][]string{
		{"nope"},
		{"tables", "-table", "9"},
		{"fig67", "-mixes", "13"},
		{"fig9", "-llc_sets", "0"},
		{"fig2", "extra"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
