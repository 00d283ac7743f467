package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/report"
)

// This file is the hot-path performance baseline: per mix×policy it
// measures what one LLC access costs the simulator itself — wall time,
// heap allocations and allocated bytes — so the zero-allocation work on
// the bdi/hybrid/nvm hot paths stays locked in. cmd/bench drives it and
// writes the result as BENCH_hotpath.json; compare runs with benchstat
// or by diffing the JSON. CompareHotPath gates a sweep against the
// checked-in baseline (make bench-compare).

// HotPathOptions selects the sweep: base geometry plus the mixes and
// policies to cross.
type HotPathOptions struct {
	Base     core.Config
	Mixes    []int // 0-based
	Policies []string
	Warmup   uint64 // cycles before the measured window
	Measure  uint64 // measured cycles
}

// HotPathRow is one mix×policy measurement. Ns/allocs/bytes are per LLC
// access, derived from wall time and runtime.MemStats deltas across the
// measured window; BuildMs and BuildAllocs are the same deltas across
// cfg.Build(), which constructs the NVM array.
type HotPathRow struct {
	Mix             int // 0-based
	Policy          string
	Accesses        uint64
	NsPerAccess     float64
	AllocsPerAccess float64
	BytesPerAccess  float64
	MeanIPC         float64
	HitRate         float64
	BuildMs         float64
	BuildAllocs     uint64
}

// HotPathBench runs the mix×policy cross on the cliutil pool and returns
// the per-cell rows plus the raw task records (failed cells are dropped
// from rows but reported in the records). MemStats is process-global, so
// the pool is pinned to one worker: cells run sequentially and never
// see each other's allocations.
func HotPathBench(opt HotPathOptions) ([]HotPathRow, []cliutil.TaskResult, error) {
	if len(opt.Mixes) == 0 || len(opt.Policies) == 0 {
		return nil, nil, fmt.Errorf("experiments: hot-path bench needs at least one mix and one policy")
	}
	type cell struct{ mix, pol int }
	cells := make([]cell, 0, len(opt.Mixes)*len(opt.Policies))
	for _, m := range opt.Mixes {
		for p := range opt.Policies {
			cells = append(cells, cell{mix: m, pol: p})
		}
	}
	rows := make([]HotPathRow, len(cells))
	ok := make([]bool, len(cells))
	tasks := make([]cliutil.Task, len(cells))
	for i := range tasks {
		i := i
		c := cells[i]
		name := fmt.Sprintf("mix=%d policy=%s", c.mix+1, opt.Policies[c.pol])
		tasks[i] = cliutil.Task{Name: name, Run: func() error {
			row, err := measureHotPath(opt, c.mix, opt.Policies[c.pol])
			if err != nil {
				return err
			}
			rows[i] = row
			ok[i] = true
			return nil
		}}
	}
	results := cliutil.RunTasks(tasks, cliutil.PoolConfig{Workers: 1})
	out := rows[:0]
	for i := range rows {
		if ok[i] {
			out = append(out, rows[i])
		}
	}
	return out, results, nil
}

// measureHotPath builds one system, timing the build, warms it to steady
// state (cache contents and all scratch buffers populated) and times the
// measured window.
func measureHotPath(opt HotPathOptions, mix int, policyName string) (HotPathRow, error) {
	cfg := opt.Base
	cfg.MixID = mix
	cfg.PolicyName = policyName
	var sys *hier.System
	var err error
	buildTime, buildAllocs, _ := measureWindow(func() { sys, err = cfg.Build() })
	if err != nil {
		return HotPathRow{}, err
	}
	sys.Run(opt.Warmup)
	a0 := sys.Accesses()
	var r hier.RunStats
	elapsed, allocs, bytes := measureWindow(func() { r = sys.Run(opt.Measure) })
	da := sys.Accesses() - a0
	if da == 0 {
		return HotPathRow{}, fmt.Errorf("experiments: no LLC accesses in %d measured cycles", opt.Measure)
	}
	return HotPathRow{
		Mix:             mix,
		Policy:          policyName,
		Accesses:        da,
		NsPerAccess:     float64(elapsed.Nanoseconds()) / float64(da),
		AllocsPerAccess: float64(allocs) / float64(da),
		BytesPerAccess:  float64(bytes) / float64(da),
		MeanIPC:         r.MeanIPC,
		HitRate:         r.LLC.HitRate(),
		BuildMs:         float64(buildTime.Nanoseconds()) / 1e6,
		BuildAllocs:     buildAllocs,
	}, nil
}

// measureWindow runs fn and returns its wall time and the heap allocations
// (count and bytes) it made, from runtime.MemStats deltas. The explicit GC
// first keeps a collection triggered by earlier garbage from landing
// inside the window.
func measureWindow(fn func()) (elapsed time.Duration, mallocs, bytes uint64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	elapsed = time.Since(t0)
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
}

// HotPathReport assembles the sweep into the shared report sink. The
// "hotpath" table is the schema consumers script against:
// mix (1-based), policy, accesses, ns_per_access, allocs_per_access,
// bytes_per_access, mean_ipc, hit_rate, build_ms, build_allocs.
func HotPathReport(opt HotPathOptions, rows []HotPathRow, results []cliutil.TaskResult) *report.Report {
	rep := report.NewReport("hot-path performance baseline")
	rep.AddField("warmup_cycles", opt.Warmup)
	rep.AddField("measure_cycles", opt.Measure)
	rep.AddField("llc_sets", opt.Base.LLCSets)
	rep.AddField("seed", opt.Base.Seed)
	rep.AddField("go_version", runtime.Version())
	rep.AddField("gomaxprocs", runtime.GOMAXPROCS(0))
	tab := report.New("hotpath",
		"mix", "policy", "accesses", "ns_per_access",
		"allocs_per_access", "bytes_per_access", "mean_ipc", "hit_rate",
		"build_ms", "build_allocs")
	for _, r := range rows {
		tab.AddRow(r.Mix+1, r.Policy, report.FormatCount(r.Accesses), r.NsPerAccess,
			r.AllocsPerAccess, r.BytesPerAccess, r.MeanIPC, r.HitRate,
			r.BuildMs, report.FormatCount(r.BuildAllocs))
	}
	rep.AddTable(tab)
	cliutil.AddRunSummary(rep, results)
	return rep
}

// CompareHotPath gates a sweep against a baseline report (the JSON that
// make bench writes): every row needs a baseline cell with the same mix
// and policy, and its allocs_per_access, rendered at the report's four
// decimals, must not exceed the baseline's. That column repeats exactly
// from run to run on one toolchain, so a baseline from another Go version
// is rejected rather than compared. Wall time is never compared, and
// neither is build_allocs, which varies by a few allocations between runs.
// The error lists every regression.
func CompareHotPath(rows []HotPathRow, baseline io.Reader) error {
	var base struct {
		Fields map[string]any `json:"fields"`
		Tables []struct {
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.NewDecoder(baseline).Decode(&base); err != nil {
		return fmt.Errorf("experiments: read hot-path baseline: %w", err)
	}
	if v := base.Fields["go_version"]; v != runtime.Version() {
		return fmt.Errorf("experiments: baseline was measured with %v, this is %s: regenerate it with make bench", v, runtime.Version())
	}
	want := map[string]float64{}
	for _, t := range base.Tables {
		if t.Title != "hotpath" {
			continue
		}
		col := map[string]int{}
		for i, c := range t.Columns {
			col[c] = i
		}
		for _, r := range t.Rows {
			v, err := strconv.ParseFloat(r[col["allocs_per_access"]], 64)
			if err != nil {
				return fmt.Errorf("experiments: baseline allocs_per_access: %w", err)
			}
			want[r[col["mix"]]+"/"+r[col["policy"]]] = v
		}
	}
	var errs []error
	for _, r := range rows {
		key := fmt.Sprintf("%d/%s", r.Mix+1, r.Policy)
		limit, ok := want[key]
		if !ok {
			errs = append(errs, fmt.Errorf("mix %d %s: no baseline cell", r.Mix+1, r.Policy))
			continue
		}
		got, _ := strconv.ParseFloat(fmt.Sprintf("%.4f", r.AllocsPerAccess), 64)
		if got > limit {
			errs = append(errs, fmt.Errorf("mix %d %s: allocs_per_access %.4f exceeds baseline %.4f", r.Mix+1, r.Policy, got, limit))
		}
	}
	return errors.Join(errs...)
}
