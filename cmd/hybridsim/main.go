// Command hybridsim runs a single hybrid-LLC simulation window with any
// insertion policy and prints the performance and NVM-write summary. All
// counters come from the system's metrics registry and are rendered
// through the shared report sink (text, CSV or JSON).
//
// Examples:
//
//	hybridsim -policy CP_SD -mix 5
//	hybridsim -policy CA_RWR -cpth 40 -measure 20000000
//	hybridsim -policy CP_SD_Th -th 8 -capacity 0.8
//	hybridsim -config sweep-point.json            # full config from JSON
//	hybridsim -l2_size_kb 256 -nvm_latency_factor 1.5
//	hybridsim -trace mix4 -mix 4                  # replay tracegen -mix output
//	hybridsim -json | jq .fields.mean_ipc
//	hybridsim -epochs -epoch_cycles 500000 -csv > epochs.csv
//
// Every scalar core.Config field is a flag named by its JSON tag. With
// -config the file (core.Config JSON, unknown fields rejected) is
// loaded over the defaults and explicitly set flags override it. With -trace the
// per-core stimulus is replayed from tracegen's prefix.coreN.trc files
// (gzip-compressed traces are detected transparently) instead of being
// generated live; mix, seed and scale must match the recording.
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hybridsim: ")
	cfg := core.DefaultConfig()
	cf := cliutil.BindConfig(flag.CommandLine, &cfg).BindRun()
	tracePrefix := flag.String("trace", "", "replay recorded traces from prefix.coreN.trc instead of live generation")
	capacity := flag.Float64("capacity", 1.0, "pre-age the NVM part to this capacity fraction")
	warmup := flag.Uint64("warmup", 2_000_000, "warm-up cycles")
	measure := flag.Uint64("measure", 10_000_000, "measured cycles")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	csvOut := flag.Bool("csv", false, "emit the report as CSV")
	epochs := flag.Bool("epochs", false, "include the per-epoch series (IPC, LLC traffic, NVM bytes, CPth)")
	allMetrics := flag.Bool("metrics", false, "include the full registry delta of the measured window")
	flag.Parse()
	if err := cf.Apply(); err != nil {
		log.Fatal(err)
	}

	var h *core.RunHandle
	var err error
	if *tracePrefix != "" {
		progs, perr := cliutil.LoadMixPrograms(*tracePrefix, cfg.MixID, cfg.Seed, cfg.Scale)
		if perr != nil {
			log.Fatal(perr)
		}
		h, err = cfg.NewRunHandleFromPrograms(progs)
	} else {
		h, err = cfg.NewRunHandle()
	}
	if err != nil {
		log.Fatal(err)
	}

	if *capacity < 1 {
		h.PreAge(*capacity)
	}
	s, err := h.MeasureCtx(context.Background(), *warmup, *measure, core.RunHooks{})
	if err != nil {
		log.Fatal(err)
	}
	cpthWinner := -1
	if w, ok := h.DuelingWinner(); ok {
		cpthWinner = w
	}

	opt := cliutil.RunReportOptions{CPthWinner: cpthWinner, Metrics: *allMetrics}
	if *epochs {
		opt.Epochs = h.EpochRing().Samples()
	}
	rep := cliutil.RunReport(cfg, s, opt)
	var checkErr error
	if chk, ok := h.System().AccessProbe().(*check.Checker); ok {
		chk.ReportInto(rep)
		checkErr = chk.Err()
	}
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		log.Fatal(err)
	}
	if checkErr != nil {
		log.Fatal(checkErr)
	}
}
