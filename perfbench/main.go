// Command perfbench is the repository's benchmark: it measures what the
// simulator costs on the host, end to end and layer by layer, on three
// workloads — long single simulations (sim-long), full aging forecasts
// (forecast-aging) and an in-process simd job service under two
// closed-loop HTTP clients (service-quick). It drives only the public
// entry points of the simulator's packages and checks every simulated
// result. README.md beside this file describes the workloads, the metrics
// and the traced output.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload sim-long --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics — the end-to-end metrics with
// --trace 0, the per-layer metrics of a traced run with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Workload names.
const (
	simLong       = "sim-long"
	forecastAging = "forecast-aging"
	serviceQuick  = "service-quick"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// endToEnd are the metrics every workload reports with --trace 0, in
// output order.
var endToEnd = []string{"setup_s", "ops_per_s", "op_s_p50", "peak_rss_mb"}

// perLayer are the metrics every workload reports with --trace 1; a layer
// a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.build_ms", "ms"}, {"nvm.new_array_ms", "ms"}, {"nvm.frames_built", "count"},
	{"workload.next_ns", "ns"}, {"workload.next_calls", "count"},
	{"workload.content_ns", "ns"}, {"workload.content_calls", "count"},
	{"hier.self_ns_per_access", "ns"}, {"hier.accesses", "count"},
	{"hybrid.lookup_ns", "ns"}, {"hybrid.lookups", "count"},
	{"hybrid.insert_ns", "ns"}, {"hybrid.inserts", "count"},
	{"hybrid.hit_ratio", "ratio"}, {"hybrid.nvm_writes", "count"},
	{"dueling.end_epoch_us", "us"}, {"dueling.epochs", "count"},
	{"bdi.sizeof_ns", "ns"}, {"bdi.compressed_ratio", "ratio"},
	{"forecast.run_s", "s"}, {"forecast.age_s", "s"},
	{"forecast.invalidate_ms", "ms"}, {"forecast.phases", "count"},
	{"server.submit_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.run_ms", "ms"},
	{"server.report_ms", "ms"}, {"server.cache_hit_ratio", "ratio"},
	{"server.cache_hit_ms_p50", "ms"}, {"server.job_s_p90", "s"},
	{"jobstore.append_ms", "ms"}, {"jobstore.put_artifact_ms", "ms"}, {"jobstore.replay_ms", "ms"},
	{"trace.overhead_ratio", "ratio"}, {"trace.ops", "count"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	commit   string
}

func (o options) windowNs() int64 { return int64(o.seconds * float64(time.Second)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run measured and checked.
type result struct {
	attempted, failed int
	failures          []string
	setups            []float64         // seconds, one per set-up
	e2e               map[string]metric // the end-to-end metrics
	extra             map[string]metric // end-to-end metrics only some workloads have
	layers            map[string]metric // per-layer metrics (traced run)
	spans             *tracer
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, extra: map[string]metric{}}
}

// fail counts one failed operation.
func (r *result) fail(msg string) {
	r.failed++
	r.failures = append(r.failures, msg)
}

// check counts a failed output check as a failed operation and reports
// whether the check passed.
func (r *result) check(err error) bool {
	if err != nil {
		r.fail(err.Error())
		return false
	}
	return true
}

// setE2E derives the timing metrics from the operations' wall times and
// the window they ran in.
func (r *result) setE2E(walls []float64, windowS float64) {
	r.e2e["setup_s"] = metric{percentile(r.setups, 0.5), "s"}
	r.e2e["ops_per_s"] = metric{ratio(float64(len(walls)), windowS), "1/s"}
	r.e2e["op_s_p50"] = metric{percentile(walls, 0.5), "s"}
	if samplesBeyond(len(walls), 0.9) >= minTail {
		r.extra["op_s_p90"] = metric{percentile(walls, 0.9), "s"}
	}
	r.extra["failed_ratio"] = metric{ratio(float64(r.failed), float64(r.attempted)), "ratio"}
	r.extra["samples"] = metric{float64(len(walls)), "count"}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	var record string
	flag.StringVar(&o.workload, "workload", "", "sim-long, forecast-aging or service-quick")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed: every input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run that reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for spans files and service data")
	flag.StringVar(&o.commit, "commit", "unknown", "git commit the benchmarked tree was built from")
	flag.StringVar(&record, "record", "", "write the expected outcomes of the default seed to this file and exit")
	flag.Parse()
	o.trace = trace == 1
	if record != "" {
		if err := recordExpected(record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var res *result
	switch o.workload {
	case simLong, forecastAging:
		res, err = runLibrary(o.workload, o, exp)
	case serviceQuick:
		res, err = runService(o, exp)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := report(o, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// stamp identifies the run: toolchain, parallelism, tree and inputs.
func stamp(o options, res *result) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"trace":      o.trace,
		"seconds":    o.seconds,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"commit":     o.commit,
		"operations": res.attempted,
	}
}

// report prints the human-readable lines, writes the spans of a traced
// run, and prints the result object as the last line.
func report(o options, res *result) error {
	st := stamp(o, res)
	blob, err := json.Marshal(st)
	if err != nil {
		return err
	}
	fmt.Printf("# stamp %s\n", blob)
	for _, f := range res.failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	out := map[string]metric{}
	if o.trace {
		for _, l := range perLayer {
			m, ok := res.layers[l.name]
			if !ok {
				m = metric{0, l.unit}
			}
			out[l.name] = m
		}
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := res.spans.write(path, st); err != nil {
			return err
		}
		fmt.Printf("# spans written to %s\n", path)
		for _, l := range perLayer {
			fmt.Printf("# layer %-26s %14.6g %-5s  %s\n", l.name, out[l.name].Value, l.unit, coverage[l.name])
		}
	} else {
		res.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		for _, name := range endToEnd {
			out[name] = res.e2e[name]
		}
		names := append([]string(nil), endToEnd...)
		extra := make([]string, 0, len(res.extra))
		for k := range res.extra {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		for _, k := range append(names, extra...) {
			m, ok := res.e2e[k]
			if !ok {
				m = res.extra[k]
			}
			fmt.Printf("# e2e %-18s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	for k, m := range out {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) { // no operation succeeded
			out[k] = metric{0, m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// coverage says, per layer metric, what its shim covers.
var coverage = map[string]string{
	"core.build_ms":            "untraced core.Config.Build: workload, policy, LLC, NVM array, hierarchy",
	"nvm.new_array_ms":         "standalone nvm.NewArray at the operation's geometry (also inside core.build_ms)",
	"workload.next_ns":         "hier.Program.Next; BumpVersion and Owns are untimed and land in hier self time",
	"workload.content_ns":      "hier.Program.ContentInto/Content (block contents for compressing policies)",
	"hier.self_ns_per_access":  "Run time minus every shim's time; includes L1/L2, banks and the shims' own clock reads",
	"hybrid.lookup_ns":         "hier.Target GetS/GetX: the whole LLC lookup",
	"hybrid.insert_ns":         "hier.Target Insert: victim choice, bdi.SizeOf and NVM frame writes included",
	"dueling.end_epoch_us":     "hier.Target EndEpoch: the dueling epoch close (a no-op for BH)",
	"bdi.sizeof_ns":            "replay of sampled insert contents; not subtracted from hybrid.insert_ns",
	"forecast.run_s":           "forecast.Target Run (the simulation phases)",
	"forecast.age_s":           "RunTarget self time: the analytic aging step between Target calls",
	"forecast.invalidate_ms":   "forecast.Target InvalidateUnfit",
	"server.submit_ms":         "POST /v1/jobs round trip for jobs that simulate",
	"server.queue_wait_ms":     "JobStatus started_at - submitted_at",
	"server.run_ms":            "JobStatus finished_at - started_at: build, warm-up, measure, artifact write",
	"server.report_ms":         "GET /v1/jobs/{id}/report round trip",
	"jobstore.append_ms":       "jobstore.Append (with fsync) on the benchmark's own store",
	"jobstore.put_artifact_ms": "jobstore.PutArtifact of the job's report on the benchmark's own store",
	"jobstore.replay_ms":       "jobstore.Replay of the service's data directory after the window",
	"trace.overhead_ratio":     "traced / untraced wall time of the same operations",
}
