// Command forecast reproduces the lifetime/performance evolution figures
// (Fig. 1, Fig. 10a/b/c, Fig. 11a/b/c): for each selected policy it runs
// the aging forecast procedure across the selected mixes and prints the
// lifetime to 50% NVM capacity plus the IPC trajectory (normalised to the
// 16-way SRAM upper bound), through the shared report sink.
//
// Examples:
//
//	forecast                                  # Fig 10a curve set, quick mixes
//	forecast -mixes all                       # the ten Table V mixes
//	forecast -sram_ways 3 -nvm_ways 13        # Fig 10b
//	forecast -endurance_cv 0.25               # Fig 10c
//	forecast -l2_size_kb 256                  # Fig 11a
//	forecast -nvm_latency_factor 1.5          # Fig 11b
//	forecast -nvm_ways 10                     # Fig 11c equal-storage point
//	forecast -json | jq '.tables[0]'
//
// Every scalar core.Config field is a flag named by its JSON tag, over
// DefaultConfig and any -config file.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("forecast: ")
	cfg := core.DefaultConfig()
	cf := cliutil.BindConfig(flag.CommandLine, &cfg)
	policies := flag.String("policies", "standard", `comma-separated curve labels, "standard" or "core"`)
	mixesFlag := flag.String("mixes", "1,4", cliutil.MixesUsage)
	fc := forecast.DefaultConfig()
	flag.Uint64Var(&fc.PhaseCycles, "phase", 10_000_000, "measured cycles per forecast phase")
	flag.Uint64Var(&fc.WarmupCycles, "warmup", 2_000_000, "warm-up cycles per phase")
	flag.Float64Var(&fc.CapacityStep, "step", 0.025, "capacity drop per prediction phase")
	flag.BoolVar(&fc.InterSetRotation, "rotate", false, "enable Start-Gap-style inter-set wear leveling")
	analyticFast := flag.Bool("analytic", false, "use the analytic fast path: one calibration window per cell instead of the full forecast loop (-warmup sizes the warm-up, -phase the calibration window)")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()
	if err := cf.Apply(); err != nil {
		log.Fatal(err)
	}
	// Both mechanisms remap set indices; layering them would make the wear
	// attribution ambiguous, so the combination is rejected outright.
	if fc.InterSetRotation && cfg.Coloring != nil {
		log.Fatalf("-rotate and -coloring are mutually exclusive wear-leveling mechanisms")
	}

	specs, err := experiments.SelectForecastSpecs(*policies)
	if err != nil {
		log.Fatal(err)
	}
	mixes, err := cliutil.ParseMixes(*mixesFlag)
	if err != nil {
		log.Fatal(err)
	}

	var fs []experiments.PolicyForecast
	var results []cliutil.TaskResult
	if *analyticFast {
		fs, results, err = experiments.AnalyticComparison(cfg, specs, mixes, fc.WarmupCycles, fc.PhaseCycles)
	} else {
		fs, results, err = experiments.ForecastComparison(cfg, specs, mixes, fc)
	}
	if err != nil {
		log.Fatal(err)
	}

	// Normalise to the SRAM16 upper bound if it was run.
	bound := 0.0
	if up, ok := experiments.FindSpec(fs, "SRAM16"); ok {
		bound = up.InitialIPC
	}

	// Exact lifetime × IPC Pareto frontier over the curve set (zero
	// margins — these are measured numbers, not estimates; the sweep
	// planner applies error margins to the same helper).
	pts := make([]experiments.ParetoPoint, len(fs))
	for i, pf := range fs {
		pts[i] = experiments.ParetoPoint{Lifetime: pf.MeanLifetimeMonths, IPC: pf.InitialIPC}
	}
	frontier := experiments.ParetoFrontier(pts)

	title := "forecast: lifetime and IPC evolution"
	if *analyticFast {
		title = "forecast (analytic fast path): lifetime and IPC estimates"
	}
	rep := report.NewReport(title)
	summary := report.New("lifetime to 50% NVM capacity",
		"policy", "ipc_t0", "norm_ipc", "lifetime_months", "censored_mixes", "pareto")
	for i, pf := range fs {
		life := "inf"
		if !math.IsInf(pf.MeanLifetimeMonths, 1) {
			life = fmt.Sprintf("%.1f", pf.MeanLifetimeMonths)
		}
		norm := "-"
		if bound > 0 {
			norm = fmt.Sprintf("%.4f", pf.InitialIPC/bound)
		}
		summary.AddRow(pf.Label, pf.InitialIPC, norm, life, pf.CensoredMixes, frontier[i])
	}
	rep.AddTable(summary)

	// IPC trajectory on a monthly grid up to the slowest-aging finite curve.
	maxMo := 0.0
	for _, pf := range fs {
		if !math.IsInf(pf.MeanLifetimeMonths, 1) && pf.MeanLifetimeMonths > maxMo {
			maxMo = pf.MeanLifetimeMonths
		}
	}
	if maxMo > 0 {
		const points = 8
		cols := []string{"policy"}
		for i := 0; i <= points; i++ {
			// %.3g keeps sub-month horizons distinguishable on
			// accelerated-endurance runs where %.1f would print all zeros.
			cols = append(cols, fmt.Sprintf("month_%.3g", maxMo*float64(i)/points))
		}
		traj := report.New("IPC vs time (normalised)", cols...)
		for _, pf := range fs {
			if pf.Label == "SRAM16" || pf.Label == "SRAM4" {
				continue
			}
			row := []interface{}{pf.Label}
			for i := 0; i <= points; i++ {
				t := maxMo * float64(i) / points * forecast.SecondsPerMonth
				v := pf.IPCAt(t)
				if bound > 0 {
					v /= bound
				}
				row = append(row, v)
			}
			traj.AddRow(row...)
		}
		rep.AddTable(traj)
	}
	cliutil.AddRunSummary(rep, results)
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		log.Fatal(err)
	}
}
