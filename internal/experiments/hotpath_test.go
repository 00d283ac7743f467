package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

func TestHotPathBench(t *testing.T) {
	cfg := core.QuickConfig()
	opt := HotPathOptions{
		Base:     cfg,
		Mixes:    []int{0},
		Policies: []string{"BH", "CP_SD"},
		Warmup:   30_000,
		Measure:  30_000,
	}
	rows, results, err := HotPathBench(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Accesses == 0 {
			t.Errorf("%s: zero accesses", r.Policy)
		}
		if r.NsPerAccess <= 0 {
			t.Errorf("%s: ns/access %v", r.Policy, r.NsPerAccess)
		}
		if r.AllocsPerAccess < 0 || r.BytesPerAccess < 0 {
			t.Errorf("%s: negative alloc rate (%v allocs, %v B)",
				r.Policy, r.AllocsPerAccess, r.BytesPerAccess)
		}
		if r.BuildMs <= 0 || r.BuildAllocs == 0 {
			t.Errorf("%s: build %v ms, %d allocs", r.Policy, r.BuildMs, r.BuildAllocs)
		}
		if r.HitRate < 0 || r.HitRate > 1 {
			t.Errorf("%s: hit rate %v", r.Policy, r.HitRate)
		}
	}
	for _, res := range results {
		if res.Failed() {
			t.Errorf("task %s failed: %v", res.Name, res.Err)
		}
	}

	rep := HotPathReport(opt, rows, results)
	var b strings.Builder
	if err := rep.Write(&b, report.JSON); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"hotpath"`, "ns_per_access", "allocs_per_access", "bytes_per_access", "build_ms", "build_allocs", "CP_SD"} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON report missing %q", want)
		}
	}
}

func TestHotPathBenchRejectsEmpty(t *testing.T) {
	if _, _, err := HotPathBench(HotPathOptions{Base: core.QuickConfig()}); err == nil {
		t.Fatal("empty cross accepted")
	}
}
