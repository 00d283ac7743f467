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

func TestCompareHotPath(t *testing.T) {
	opt := HotPathOptions{Base: core.QuickConfig(), Mixes: []int{0}, Policies: []string{"BH", "CP_SD"}}
	base := []HotPathRow{
		{Mix: 0, Policy: "BH", AllocsPerAccess: 0.0016, BuildAllocs: 3000},
		{Mix: 0, Policy: "CP_SD", AllocsPerAccess: 0.0018, BuildAllocs: 3000},
	}
	var b strings.Builder
	if err := HotPathReport(opt, base, nil).Write(&b, report.JSON); err != nil {
		t.Fatal(err)
	}
	baseline := b.String()
	compare := func(rows ...HotPathRow) error { return CompareHotPath(rows, strings.NewReader(baseline)) }

	// Equal at the report's rounding, fewer allocations, or more build
	// allocations all pass.
	if err := compare(
		HotPathRow{Mix: 0, Policy: "BH", AllocsPerAccess: 0.00162, BuildAllocs: 3004},
		HotPathRow{Mix: 0, Policy: "CP_SD", AllocsPerAccess: 0.0011},
	); err != nil {
		t.Fatalf("no regression reported as %v", err)
	}
	err := compare(
		HotPathRow{Mix: 0, Policy: "BH", AllocsPerAccess: 0.0017},
		HotPathRow{Mix: 3, Policy: "CP_SD", AllocsPerAccess: 0},
	)
	if err == nil || !strings.Contains(err.Error(), "mix 1 BH: allocs_per_access 0.0017 exceeds baseline 0.0016") ||
		!strings.Contains(err.Error(), "mix 4 CP_SD: no baseline cell") {
		t.Fatalf("regressions reported as %v", err)
	}
	other := strings.Replace(baseline, `"go_version": "go`, `"go_version": "other-go`, 1)
	if err := CompareHotPath(base, strings.NewReader(other)); err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("foreign-toolchain baseline accepted: %v", err)
	}
}
