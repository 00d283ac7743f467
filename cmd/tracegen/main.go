// Command tracegen records the memory-access trace of a synthetic
// application (or a whole mix: Table V or a skewed-traffic scenario) to
// the compact binary format of internal/trace, enabling HyCSim-style
// trace-driven studies where every policy configuration replays the
// identical stimulus. -seed and -scale default to DefaultConfig's, the
// values hybridsim -trace replays with.
//
// Examples:
//
//	tracegen -app zeusmp06 -n 1000000 -o zeusmp.trc
//	tracegen -app zeusmp06 -o zeusmp.trc.gz    # gzip-compressed output
//	tracegen -mix 4 -n 500000 -o mix4          # writes mix4.core{0..3}.trc
//	tracegen -mix 4 -gzip -o mix4              # writes mix4.core{0..3}.trc.gz
//	tracegen -mix 12 -o mix12                  # a skewed-traffic scenario
//
// Output ending in ".gz" is gzip-compressed; every trace consumer
// (hybridsim -trace) detects compression by content, so compressed and
// plain traces are interchangeable.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")
	appName := flag.String("app", "", "application profile to trace (see -list)")
	def := core.DefaultConfig()
	mixArg := flag.String("mix", "", cliutil.MixUsage+" to trace; one file per core")
	n := flag.Int("n", 1_000_000, "number of accesses to record")
	out := flag.String("o", "trace.trc", "output file (or prefix for -mix)")
	gzipOut := flag.Bool("gzip", false, "gzip-compress -mix output (appends .gz to each per-core file)")
	seed := flag.Uint64("seed", def.Seed, "deterministic seed")
	scale := flag.Float64("scale", def.Scale, "footprint scale")
	list := flag.Bool("list", false, "list available application profiles")
	flag.Parse()

	if *list {
		names := make([]string, 0)
		for name := range workload.Profiles() {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Println(name)
		}
		return
	}

	switch {
	case *appName != "":
		prof, ok := workload.Profiles()[*appName]
		if !ok {
			log.Fatalf("unknown application %q (use -list)", *appName)
		}
		app, err := workload.NewApp(prof.Scale(*scale), workload.AppSpacing, *seed)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeTrace(app, *n, *out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d accesses of %s to %s\n", *n, *appName, *out)
	case *mixArg != "":
		mix, err := cliutil.ParseMix(*mixArg)
		if err != nil {
			log.Fatal(err)
		}
		apps, err := workload.NewMix(mix, *seed, *scale)
		if err != nil {
			log.Fatal(err)
		}
		for i, app := range apps {
			name := fmt.Sprintf("%s.core%d.trc", *out, i)
			if *gzipOut {
				name += ".gz"
			}
			if err := writeTrace(app, *n, name); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %d accesses of %s to %s\n", *n, app.Profile().Name, name)
		}
	default:
		log.Fatalf("need -app NAME or -mix N")
	}
}

func writeTrace(app *workload.App, n int, path string) error {
	f, err := cliutil.CreateTrace(path)
	if err != nil {
		return err
	}
	if err := trace.Record(app, n, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
