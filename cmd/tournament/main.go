// Command tournament contests the policy league: every selected policy —
// the paper's set-dueling baseline, the RRIP-family substrate and the
// N-way tournament meta-policies — runs the aging forecast across the
// selected mixes, and the standings are ranked on the lifetime axis with
// the young-cache IPC axis alongside, through the shared report sink.
// A user-defined bracket replaces the TOURNAMENT entry's default one: a
// -config file carries it in the "tournament" field, the same object a
// `simd` job config carries. Every scalar core.Config field is a flag
// named by its JSON tag.
//
// Examples:
//
//	tournament                         # default league, quick mixes
//	tournament -mixes all              # the ten Table V mixes
//	tournament -policies SRRIP,BRRIP,DRRIP,CP_SD
//	tournament -config bracket.json    # custom TOURNAMENT bracket
//	tournament -quick                  # CI smoke preset (small, fast)
//	tournament -json | jq '.tables[0]'
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tournament: ")
	cfg := core.DefaultConfig()
	cf := cliutil.BindConfig(flag.CommandLine, &cfg)
	policiesFlag := flag.String("policies", "league", `comma-separated policy names, or "league" for the default standings`)
	mixesFlag := flag.String("mixes", "", cliutil.MixesUsage+` ("" = preset default: 1,4, or 1 under -quick)`)
	phase := flag.Uint64("phase", 0, "measured cycles per forecast phase (0 = preset default)")
	warm := flag.Uint64("warmup", 0, "warm-up cycles per phase (0 = preset default)")
	step := flag.Float64("step", 0, "capacity drop per prediction phase (0 = preset default)")
	quick := flag.Bool("quick", false, "CI smoke preset: small cache, short phases, accelerated endurance, mix 1 only")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	fc := forecast.DefaultConfig()
	fc.PhaseCycles, fc.WarmupCycles, fc.CapacityStep = 10_000_000, 2_000_000, 0.05
	mixArg := "1,4"
	if *quick {
		cfg = core.QuickConfig()
		cfg.EnduranceMean = 60_000
		cfg.EnduranceCV = 0.3
		fc.PhaseCycles, fc.WarmupCycles, fc.CapacityStep = 300_000, 100_000, 0.1
		fc.MaxPhases = 8
		mixArg = "1"
	}
	if err := cf.Apply(); err != nil {
		log.Fatal(err)
	}
	// Flags left at zero keep the preset's value.
	fc.PhaseCycles, fc.WarmupCycles = cmp.Or(*phase, fc.PhaseCycles), cmp.Or(*warm, fc.WarmupCycles)
	fc.CapacityStep, mixArg = cmp.Or(*step, fc.CapacityStep), cmp.Or(*mixesFlag, mixArg)

	names := experiments.DefaultLeague()
	if *policiesFlag != "league" {
		names = nil
		for _, tok := range strings.Split(*policiesFlag, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				names = append(names, tok)
			}
		}
	}
	specs, err := experiments.LeagueSpecs(names)
	if err != nil {
		log.Fatal(err)
	}
	mixes, err := cliutil.ParseMixes(mixArg)
	if err != nil {
		log.Fatal(err)
	}
	// Every league entry must validate before any cell runs, so a bad
	// bracket or threshold fails in milliseconds, not mid-league.
	for _, name := range names {
		c := cfg
		c.PolicyName = name
		if err := c.Validate(); err != nil {
			log.Fatal(err)
		}
	}

	fs, results, err := experiments.ForecastComparison(cfg, specs, mixes, fc)
	if err != nil {
		log.Fatal(err)
	}
	rows := experiments.RankLeague(fs)

	rep := report.NewReport("tournament: policy league standings")
	standings := report.New("standings (lifetime to 50% NVM capacity, young-cache IPC)",
		"rank", "policy", "lifetime_months", "censored_mixes", "ipc_t0", "norm_ipc")
	for _, r := range rows {
		standings.AddRow(r.Rank, r.Policy, lifeStr(r.MeanLifetimeMonths), r.CensoredMixes,
			fmt.Sprintf("%.4f", r.InitialIPC), fmt.Sprintf("%.4f", r.NormIPC))
	}
	rep.AddTable(standings)

	// Per-mix league matrices: the lifetime and IPC axes cell by cell.
	lifeCols := []string{"policy"}
	for _, m := range mixes {
		lifeCols = append(lifeCols, fmt.Sprintf("mix_%d", m+1))
	}
	lifeTab := report.New("lifetime months by mix", lifeCols...)
	ipcTab := report.New("young-cache IPC by mix", lifeCols...)
	for _, pf := range fs {
		lifeRow := []interface{}{pf.Label}
		ipcRow := []interface{}{pf.Label}
		for mi := range mixes {
			if mi >= len(pf.PerMix) {
				lifeRow = append(lifeRow, "-")
				ipcRow = append(ipcRow, "-")
				continue
			}
			res := pf.PerMix[mi]
			lifeRow = append(lifeRow, lifeStr(res.LifetimeMonths()))
			ipc := 0.0
			if len(res.Points) > 0 {
				ipc = res.Points[0].MeanIPC
			}
			ipcRow = append(ipcRow, fmt.Sprintf("%.4f", ipc))
		}
		lifeTab.AddRow(lifeRow...)
		ipcTab.AddRow(ipcRow...)
	}
	rep.AddTable(lifeTab)
	rep.AddTable(ipcTab)

	// Document the bracket the TOURNAMENT entry contested with.
	for _, name := range names {
		if name != "TOURNAMENT" {
			continue
		}
		tc := cfg.Tournament
		if tc == nil {
			tc = core.DefaultTournament()
		}
		brk := report.New("TOURNAMENT bracket", "slot", "policy", "cpth")
		for i, cand := range tc.Candidates {
			cpthVal := cand.CPth
			if cpthVal == 0 {
				cpthVal = cfg.CPth
			}
			brk.AddRow(i, cand.Policy, cpthVal)
		}
		rep.AddTable(brk)
		break
	}

	cliutil.AddRunSummary(rep, results)
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		log.Fatal(err)
	}
}

func lifeStr(months float64) string {
	if math.IsInf(months, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4g", months)
}
