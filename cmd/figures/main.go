// Command figures reproduces the paper's tables and its figure studies,
// one subcommand each:
//
//	figures tables      Tables I-V and the §V-G metadata overhead
//	figures fig2        Fig. 2: BDI compression class of every application
//	figures fig67       Figs. 6 and 7: hit rate and NVM bytes vs CPth
//	figures fig8        Fig. 8: fraction of epochs each CPth is optimal
//	figures epochsweep  §IV-C: set-dueling epoch-size sensitivity
//	figures fig9        Fig. 9: CP_SD_Th hits vs NVM bytes across Th
//	figures energy      LLC energy per policy
//	figures appstudy    every application run homogeneously (§IV-A)
//
// Every subcommand but fig2 takes the config flags: -config FILE,
// -coloring SPEC and one flag per scalar core.Config field, named by its
// JSON tag, over DefaultConfig (QuickConfig for appstudy). The studies
// add -mixes, -warmup and -measure, and report through the shared sink
// (-csv, -json).
//
//	figures fig67 -mixes 1,4,6,8
//	figures fig8 -epoch_cycles 1000000
//	figures fig9 -tw 5 -json
//	figures appstudy -policy CA -cpth 37
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

// env is what a subcommand body runs with, resolved from its flags.
type env struct {
	cfg             core.Config
	mixes           []int
	warmup, measure uint64
	format          report.Format
	out             io.Writer
	table           string // tables -table
	samples         int    // fig2 -samples
}

// write renders a study's report in the selected encoding.
func (e *env) write(rep *report.Report) error { return rep.Write(e.out, e.format) }

// subcommand is one figure or table: the flags it takes and its body.
type subcommand struct {
	name, summary   string
	base            func() core.Config // the config flags' base; nil: no config flags
	mixes           bool               // -mixes (default 1,4)
	warmup, measure uint64             // window defaults; 0: no window flags
	formats         bool               // -csv and -json
	run             func(e *env) error
}

// tablesBase is DefaultConfig with the threshold Table II illustrates.
func tablesBase() core.Config {
	c := core.DefaultConfig()
	c.CPth = 37
	return c
}

var subcommands = []subcommand{
	{name: "tables", summary: "Tables I-V and the §V-G metadata overhead", base: tablesBase, run: tables},
	{name: "fig2", summary: "Fig. 2: BDI compression class of every application", run: fig2},
	{name: "fig67", summary: "Figs. 6 and 7: hit rate and NVM bytes vs CPth, normalised to BH",
		base: core.DefaultConfig, mixes: true, warmup: 2_000_000, measure: 8_000_000, formats: true, run: fig67},
	{name: "fig8", summary: "Fig. 8: fraction of epochs each CPth is optimal",
		base: core.DefaultConfig, mixes: true, formats: true, run: fig8},
	{name: "epochsweep", summary: "§IV-C: set-dueling epoch-size sensitivity",
		base: core.DefaultConfig, mixes: true, warmup: 2_000_000, measure: 8_000_000, formats: true, run: epochSweep},
	{name: "fig9", summary: "Fig. 9: CP_SD_Th hits vs NVM bytes across Th (Tw from -tw)",
		base: core.DefaultConfig, mixes: true, warmup: 2_000_000, measure: 8_000_000, formats: true, run: fig9},
	{name: "energy", summary: "LLC energy per policy",
		base: core.DefaultConfig, mixes: true, warmup: 2_000_000, measure: 8_000_000, formats: true, run: energy},
	{name: "appstudy", summary: "every application run homogeneously under -policy (§IV-A)",
		base: core.QuickConfig, warmup: 1_000_000, measure: 4_000_000, formats: true, run: appStudy},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	if arg := os.Args[1]; arg == "-h" || arg == "-help" || arg == "help" {
		usage()
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses one subcommand's command line and runs it, writing the
// result to out. A bad flag or -h exits from the flag package.
func run(args []string, out io.Writer) error {
	var sub *subcommand
	for i := range subcommands {
		if subcommands[i].name == args[0] {
			sub = &subcommands[i]
		}
	}
	if sub == nil {
		return fmt.Errorf("unknown subcommand %q (figures -h lists them)", args[0])
	}

	fs := flag.NewFlagSet("figures "+sub.name, flag.ExitOnError)
	var cfg core.Config
	var cf *cliutil.ConfigFlags
	if sub.base != nil {
		cfg = sub.base()
		cf = cliutil.BindConfig(fs, &cfg)
	}
	e := &env{out: out}
	switch sub.name { // the subcommands' own flags
	case "tables":
		fs.StringVar(&e.table, "table", "all", "which table: 1,2,3,4,5,overhead,all")
	case "fig2":
		fs.IntVar(&e.samples, "samples", 8000, "blocks sampled per application")
	case "appstudy":
		cf.BindPolicy()
	}
	mixes := "1,4"
	if sub.mixes {
		fs.StringVar(&mixes, "mixes", mixes, cliutil.MixesUsage)
	}
	if sub.warmup > 0 {
		fs.Uint64Var(&e.warmup, "warmup", sub.warmup, "warm-up cycles")
		fs.Uint64Var(&e.measure, "measure", sub.measure, "measured cycles")
	}
	var csvOut, jsonOut bool
	if sub.formats {
		fs.BoolVar(&csvOut, "csv", false, "emit CSV")
		fs.BoolVar(&jsonOut, "json", false, "emit JSON")
	}
	fs.Parse(args[1:])
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected arguments %q", sub.name, fs.Args())
	}
	if cf != nil {
		if err := cf.Apply(); err != nil {
			return err
		}
	}
	if sub.mixes {
		var err error
		if e.mixes, err = cliutil.ParseMixes(mixes); err != nil {
			return err
		}
	}
	e.cfg = cfg
	e.format = report.FormatOf(jsonOut, csvOut)
	return sub.run(e)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: figures <subcommand> [flags]   (figures <subcommand> -h lists its flags)")
	fmt.Fprintln(os.Stderr)
	for _, s := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", s.name, s.summary)
	}
}

func tables(e *env) error {
	sections := []struct{ key, title, body string }{
		{"1", "Table I — BDI compression encodings", experiments.Table1BDI()},
		{"2", "Table II — CA_RWR insertion decision", experiments.Table2CARWR(e.cfg.CPth)},
		{"3", "Table III — tested insertion policies", table3()},
		{"4", "Table IV — system specification (scaled defaults)", experiments.Table4System(e.cfg)},
		{"5", "Table V — SPEC CPU 2006 and 2017 mixes", experiments.Table5Mixes()},
		{"overhead", "Metadata overhead (§V-G)", overhead()},
	}
	known := e.table == "all"
	for _, t := range sections {
		if e.table == "all" || e.table == t.key {
			fmt.Fprintf(e.out, "%s\n%s\n", t.title, t.body)
			known = true
		}
	}
	if !known {
		return fmt.Errorf("tables: unknown table %q", e.table)
	}
	return nil
}

func table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-10s\n", "Name", "Disabling", "Compression", "NVM-aware")
	for _, r := range experiments.Table3Policies() {
		fmt.Fprintf(&b, "%-10s %-12s %-12v %-10v\n", r.Name, r.Granularity, r.Compression, r.NVMAware)
	}
	return b.String()
}

func overhead() string {
	var b strings.Builder
	for _, r := range experiments.OverheadTable() {
		fmt.Fprintf(&b, "%-36s %3d bits/frame  %5.2f%% of NVM data array\n",
			r.Scheme, r.BitsPerFrame, r.FractionOfNVMData*100)
	}
	return b.String()
}

func fig2(e *env) error {
	fmt.Fprintln(e.out, "Fig. 2 — block classification by compression ratio")
	fmt.Fprintf(e.out, "%-14s %8s %8s %8s\n", "application", "HCR", "LCR", "incomp")
	for _, r := range experiments.Fig2CompressionProfile(e.samples) {
		fmt.Fprintf(e.out, "%-14s %7.1f%% %7.1f%% %7.1f%%\n",
			r.App, r.HCR*100, r.LCR*100, r.Incompressible*100)
	}
	return nil
}

func fig67(e *env) error {
	sweep, results, err := experiments.Fig6And7CPthSweep(e.cfg, e.mixes, e.warmup, e.measure)
	if err != nil {
		return err
	}
	rep := report.NewReport("Fig. 6 / Fig. 7 — normalised to BH")
	rep.AddField("cpsd_hits_vs_bh", sweep.NormalizedHitRate(sweep.CPSDHits))
	rep.AddField("cpsd_bytes_vs_bh", sweep.NormalizedBytes(sweep.CPSDBytes))
	tab := report.New("CPth sweep (CA and CA_RWR vs BH)",
		"cpth", "ca_hits", "ca_rwr_hits", "ca_bytes", "ca_rwr_bytes")
	for _, r := range sweep.Rows {
		tab.AddRow(r.CPth,
			sweep.NormalizedHitRate(r.CAHits),
			sweep.NormalizedHitRate(r.CARWRHits),
			sweep.NormalizedBytes(r.CANVMBytes),
			sweep.NormalizedBytes(r.CARWRNVMBytes))
	}
	rep.AddTable(tab)
	cliutil.AddRunSummary(rep, results)
	return e.write(rep)
}

func fig8(e *env) error {
	// Three warm-up and sixteen recorded epochs of -epoch_cycles each.
	res, err := experiments.Fig8OptimalCPth(e.cfg, e.mixes, []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5}, 3, 16)
	if err != nil {
		return err
	}
	rep := report.NewReport("Fig. 8 — fraction of epochs each CPth is optimal")
	cols := make([]string, 0, len(res.Candidates)+1)
	cols = append(cols, "capacity")
	for _, c := range res.Candidates {
		cols = append(cols, fmt.Sprintf("cpth_%d", c))
	}
	byCap := report.New("Fig. 8a — by NVM capacity", cols...)
	for i, capacity := range res.Capacities {
		row := []interface{}{fmt.Sprintf("%.0f%%", capacity*100)}
		for _, f := range res.ByCapacity[i] {
			row = append(row, f)
		}
		byCap.AddRow(row...)
	}
	rep.AddTable(byCap)

	// The report keeps the slice it is given, so 8b renames a copy.
	mixCols := append([]string{"mix"}, cols[1:]...)
	byMix := report.New("Fig. 8b — per mix at 100% capacity", mixCols...)
	for i, m := range res.Mixes {
		row := []interface{}{m + 1}
		for _, f := range res.ByMix[i] {
			row = append(row, f)
		}
		byMix.AddRow(row...)
	}
	rep.AddTable(byMix)
	return e.write(rep)
}

func epochSweep(e *env) error {
	sizes := []uint64{500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000}
	rows, err := experiments.EpochSizeSweep(e.cfg, e.mixes, sizes, e.warmup, e.measure)
	if err != nil {
		return err
	}
	rep := report.NewReport("Set-dueling epoch-size sensitivity (§IV-C; paper picks 2M)")
	tab := report.New("hit rate by epoch size", "epoch_cycles", "hit_rate")
	for _, r := range rows {
		tab.AddRow(r.EpochCycles, r.HitRate)
	}
	rep.AddTable(tab)
	return e.write(rep)
}

func fig9(e *env) error {
	ths := []float64{0, 2, 4, 6, 8}
	caps := []float64{1.0, 0.9, 0.8}
	tw := e.cfg.Tw
	pts, results, err := experiments.Fig9ThTradeoff(e.cfg, e.mixes, ths, caps, tw, e.warmup, e.measure)
	if err != nil {
		return err
	}
	rep := report.NewReport(fmt.Sprintf("Fig. 9 — CP_SD_Th trade-off (Tw = %g%%), normalised to BH @ 100%%", tw))
	tab := report.New("hits vs NVM bytes", "capacity", "th", "hits", "nvm_bytes")
	for _, p := range pts {
		tab.AddRow(fmt.Sprintf("%.0f%%", p.Capacity*100), fmt.Sprintf("%g", p.Th), p.Hits, p.NVMBytes)
	}
	rep.AddTable(tab)
	cliutil.AddRunSummary(rep, results)
	return e.write(rep)
}

func energy(e *env) error {
	policies := []string{"BH", "BH_CP", "LHybrid", "TAP", "CA_RWR", "CP_SD", "CP_SD_Th"}
	rows, results, err := experiments.EnergyComparison(e.cfg, policies, e.mixes, e.warmup, e.measure)
	if err != nil {
		return err
	}
	rep := report.NewReport("LLC energy per policy (mJ per measurement window)")
	tab := report.New("energy breakdown",
		"policy", "sram_dyn", "nvm_dyn", "tag", "sram_leak", "nvm_leak", "total", "vs_bh", "uj_per_ki", "ipc")
	for _, r := range rows {
		b := r.Breakdown
		tab.AddRow(r.Policy, b.SRAMDynamic, b.NVMDynamic, b.TagDynamic,
			b.SRAMLeak, b.NVMLeak, b.Total(), r.RelativeToBH, r.PerKI*1e3, r.MeanIPC)
	}
	rep.AddTable(tab)
	cliutil.AddRunSummary(rep, results)
	return e.write(rep)
}

// appStudy runs over QuickConfig. Its CSV is the bare table, without
// the report sink's table record.
func appStudy(e *env) error {
	policy := e.cfg.PolicyName
	rows, results, err := experiments.PerAppStudy(e.cfg, policy, e.warmup, e.measure)
	if err != nil {
		return err
	}
	tab := report.New(fmt.Sprintf("per-application behaviour under %s", policy),
		"app", "hit rate", "IPC", "NVM share", "compressible", "NVM bytes")
	for _, r := range rows {
		tab.AddRow(r.App, r.HitRate, r.MeanIPC, r.NVMShare, r.CompressibleFr, r.NVMBytes)
	}
	if e.format == report.CSV {
		err = tab.WriteCSV(e.out)
	} else {
		err = e.write(report.NewReport("").AddTable(tab))
	}
	if err != nil {
		return err
	}
	if fails := cliutil.Failures(results); len(fails) > 0 {
		msg := fmt.Sprintf("%d of %d applications failed:", len(fails), len(results))
		for _, f := range fails {
			msg += fmt.Sprintf("\n  %s [%s]: %v", f.Name, f.Kind(), f.Err)
		}
		return errors.New(msg)
	}
	return nil
}
