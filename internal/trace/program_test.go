package trace

import (
	"bytes"
	"sort"
	"testing"

	"repro/internal/bdi"
	"repro/internal/workload"
)

// TestProgramCompressedSizeMatchesContent: a replayed program forwards
// its content model's size memo, so across stores (BumpVersion through
// the program) CompressedSize stays bdi.SizeOf(Content) for every
// profile and every content class, Zeros included.
func TestProgramCompressedSizeMatchesContent(t *testing.T) {
	const perClass, versions = 4, 3
	profs := workload.Profiles()
	names := make([]string, 0, len(profs))
	for name := range profs {
		names = append(names, name)
	}
	sort.Strings(names)
	covered := map[workload.Class]bool{}
	for _, name := range names {
		p := profs[name]
		rec, err := workload.NewApp(p, 1<<32, 3)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Record(rec, 16, &buf); err != nil {
			t.Fatal(err)
		}
		rep, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		app, _ := workload.NewApp(p, 1<<32, 3)
		prog := NewProgram(rep, app)
		var blocks []uint64
		picked := map[workload.Class]int{}
		for local := 0; local < p.FootprintBlocks; local++ {
			b := app.Base() + uint64(local)
			if c := app.ClassOf(b); picked[c] < perClass {
				picked[c]++
				covered[c] = true
				blocks = append(blocks, b)
			}
		}
		for v := 0; v < versions; v++ {
			for _, b := range blocks {
				want := bdi.SizeOf(prog.Content(b))
				if app.ClassOf(b) == workload.ClassZeros && want != 1 {
					t.Fatalf("%s zeros block %#x sizes to %d, want 1", name, b, want)
				}
				for i := 0; i < 2; i++ {
					if got := prog.CompressedSize(b); got != want {
						t.Fatalf("%s block %#x version %d call %d: CompressedSize %d, SizeOf(Content) %d",
							name, b, v, i, got, want)
					}
				}
				prog.BumpVersion(b)
			}
		}
	}
	if len(covered) != 4 {
		t.Errorf("profiles cover %d of 4 content classes", len(covered))
	}
}
