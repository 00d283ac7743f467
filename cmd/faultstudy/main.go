// Command faultstudy drives a deterministic fault-injection campaign
// against a running system and reports the graceful-degradation curve:
// per campaign step, the surviving effective NVM capacity, live frames,
// and the hit rate / IPC measured after the faults land. The full strict
// invariant suite runs after every step; any violation is reported and
// fails the run. Same seed, same flags → bit-identical report.
//
//	faultstudy -quick                      # fast degradation curve to 50%
//	faultstudy -policy CP_SD -mix 4        # full-size study
//	faultstudy -spec campaign.json -json   # replay a declarative campaign
//
// Every scalar core.Config field is a flag named by its JSON tag; the
// continuous invariant checker (-check_every) defaults to every 10,000
// LLC accesses.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/report"
)

type studyOptions struct {
	Config   core.Config
	SpecPath string  // campaign spec JSON; empty = capacity ramp
	Target   float64 // ramp: final effective capacity fraction
	Step     float64 // ramp: capacity drop per step
	Warmup   uint64
	Measure  uint64
	Format   report.Format
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultstudy: ")
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	rep, violations, err := runStudy(opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Write(os.Stdout, opt.Format); err != nil {
		log.Fatal(err)
	}
	if violations > 0 {
		log.Fatalf("%d invariant violations", violations)
	}
}

// parseArgs resolves the command line: the preset (DefaultConfig, or
// QuickConfig with short windows under -quick, both with the continuous
// checker on every 10,000 accesses), then -config, then the flags set
// explicitly.
func parseArgs(args []string) (studyOptions, error) {
	fs := flag.NewFlagSet("faultstudy", flag.ExitOnError)
	cfg := core.DefaultConfig()
	cfg.CheckEvery = 10_000
	cf := cliutil.BindConfig(fs, &cfg).BindRun()
	spec := fs.String("spec", "", "campaign spec JSON file (default: capacity ramp)")
	target := fs.Float64("target", 0.5, "ramp target effective capacity fraction")
	step := fs.Float64("step", 0.1, "ramp capacity drop per step")
	quick := fs.Bool("quick", false, "small configuration, short windows")
	warmup := fs.Uint64("warmup", 0, "warm-up cycles (0 = preset default)")
	measure := fs.Uint64("measure", 0, "measured cycles per step (0 = preset default)")
	csvOut := fs.Bool("csv", false, "emit CSV")
	jsonOut := fs.Bool("json", false, "emit JSON")
	fs.Parse(args) // exits on a bad flag or -h
	opt := studyOptions{SpecPath: *spec, Target: *target, Step: *step,
		Warmup: 2_000_000, Measure: 2_000_000, Format: report.FormatOf(*jsonOut, *csvOut)}
	if *quick {
		cfg = core.QuickConfig()
		cfg.CheckEvery = 10_000
		opt.Warmup, opt.Measure = 300_000, 300_000
	}
	if err := cf.Apply(); err != nil {
		return studyOptions{}, err
	}
	opt.Warmup, opt.Measure = cmp.Or(*warmup, opt.Warmup), cmp.Or(*measure, opt.Measure)
	opt.Config = cfg
	return opt, nil
}

// runStudy executes the campaign and returns the report plus the total
// number of invariant violations observed (step checks and the
// continuous checker combined).
func runStudy(opt studyOptions) (*report.Report, int, error) {
	cfg := opt.Config
	sys, err := cfg.Build()
	if err != nil {
		return nil, 0, err
	}

	var spec faultinject.Spec
	if opt.SpecPath != "" {
		spec, err = faultinject.LoadSpec(opt.SpecPath)
		if err != nil {
			return nil, 0, err
		}
	} else {
		if opt.Step <= 0 || opt.Target <= 0 || opt.Target >= 1 {
			return nil, 0, fmt.Errorf("faultstudy: bad ramp step=%v target=%v", opt.Step, opt.Target)
		}
		spec = faultinject.CapacityRamp(cfg.Seed, 1-opt.Step, opt.Target, opt.Step)
	}
	camp, err := faultinject.NewCampaign(sys.LLC().Array(), spec)
	if err != nil {
		return nil, 0, err
	}

	rep := report.NewReport(fmt.Sprintf("fault-injection study: %s, mix %d", cfg.PolicyName, cfg.MixID+1))
	rep.AddField("policy", cfg.PolicyName)
	rep.AddField("mix", cfg.MixID+1)
	rep.AddField("seed", cfg.Seed)
	rep.AddField("campaign_steps", len(spec.Steps))

	tab := report.New("degradation curve",
		"step", "kind", "capacity", "live_frames", "bytes_disabled",
		"frames_killed", "hit_rate", "mean_ipc", "violations")

	sys.Run(opt.Warmup)
	llc := sys.LLC()
	base := sys.Run(opt.Measure)
	tab.AddRow(0, "baseline", llc.EffectiveCapacityFraction(), llc.Array().LiveFrames(),
		0, 0, base.LLC.HitRate(), base.MeanIPC, 0)

	viol := report.New("invariant violations", "step", "invariant", "detail")
	totalViolations := 0
	for {
		res, ok := camp.Next()
		if !ok {
			break
		}
		// Faults can strand resident blocks in frames that no longer fit
		// them; the hardware would invalidate on the next touch, the
		// simulator does it eagerly so the strict suite applies.
		llc.InvalidateUnfit()
		vs := append(check.LLC(llc, true), check.Array(llc.Array())...)
		for _, v := range vs {
			viol.AddRow(res.Index+1, v.Invariant, v.Detail)
		}
		totalViolations += len(vs)
		r := sys.Run(opt.Measure)
		tab.AddRow(res.Index+1, string(res.Kind), res.Capacity, res.LiveFrames,
			res.BytesDisabled, res.FramesKilled, r.LLC.HitRate(), r.MeanIPC, len(vs))
	}
	rep.AddTable(tab)
	if totalViolations > 0 {
		rep.AddTable(viol)
	}
	if chk, ok := sys.AccessProbe().(*check.Checker); ok {
		chk.ReportInto(rep)
		totalViolations += len(chk.Violations()) + chk.Dropped()
	}
	rep.AddField("final_capacity", llc.EffectiveCapacityFraction())
	rep.AddField("total_violations", totalViolations)
	return rep, totalViolations, nil
}
