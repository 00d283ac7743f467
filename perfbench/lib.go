package main

import (
	"strconv"

	"repro/internal/bdi"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/hier"
	"repro/internal/nvm"
	"repro/internal/stats"
)

// outcome is the simulated result of one operation, the part the output
// checks compare. Floats are kept in their shortest exact decimal form,
// so two outcomes are equal exactly when every value is equal bit for
// bit.
type outcome struct {
	MeanIPC  string `json:"mean_ipc"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	NVMBytes uint64 `json:"nvm_bytes_written"`
	Lifetime string `json:"lifetime_s,omitempty"` // forecast-aging only
	Points   int    `json:"points,omitempty"`     // forecast-aging only
}

func exact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func runOutcome(r hier.RunStats) outcome {
	return outcome{MeanIPC: exact(r.MeanIPC), Hits: r.LLC.Hits, Misses: r.LLC.Misses, NVMBytes: r.LLC.NVMBytesWritten}
}

// forecastOutcome keeps the lifetime, the point count and the last
// point's IPC (its LLC counters are not part of forecast.Result).
func forecastOutcome(res forecast.Result) outcome {
	o := outcome{Lifetime: exact(res.LifetimeSeconds), Points: len(res.Points)}
	if n := len(res.Points); n > 0 {
		o.MeanIPC = exact(res.Points[n-1].MeanIPC)
	}
	return o
}

// opRecord is one library operation as the benchmark timed it.
type opRecord struct {
	wallNs  int64 // the whole operation
	buildNs int64 // core.Config.Build (untraced) or the traced assembly
	runNs   int64 // inside System.Run / forecast Target.Run
	insts   uint64
	out     outcome
}

// totalInsts is the instructions every core of sys has retired.
func totalInsts(sys *hier.System) uint64 {
	var n uint64
	for _, c := range sys.Cores() {
		n += c.Insts()
	}
	return n
}

// window is a simulation's warm-up and measured cycles.
type window struct{ warmup, measure uint64 }

var (
	simLongWindow = window{simLongWarmup, simLongMeasure}
	quickWindow   = window{quickWarmup, quickMeasure}
)

// simOp runs one simulation untraced: core.Config.Build, then the warm-up
// and measured windows through System.Run.
func simOp(c core.Config, w window) (opRecord, error) {
	t0 := nanotime()
	sys, err := c.Build()
	if err != nil {
		return opRecord{}, err
	}
	t1 := nanotime()
	sys.Run(w.warmup)
	r := sys.Run(w.measure)
	t2 := nanotime()
	return opRecord{wallNs: t2 - t0, buildNs: t1 - t0, runNs: t2 - t1, insts: totalInsts(sys), out: runOutcome(r)}, nil
}

// forecastConfig is the forecast-aging loop: 300k warm-up plus 2M cycles
// per phase, 5% capacity steps down to 50%.
func forecastConfig() forecast.Config {
	c := forecast.DefaultConfig()
	c.WarmupCycles = quickWarmup
	c.PhaseCycles = quickMeasure
	c.CapacityStep = forecastStep
	c.TargetCapacity = forecastStop
	return c
}

// runTimer times the Run calls of a forecast target and nothing else.
type runTimer struct {
	forecast.Target
	ns int64
}

func (r *runTimer) Run(cycles uint64) forecast.Window {
	s := nanotime()
	w := r.Target.Run(cycles)
	r.ns += nanotime() - s
	return w
}

// forecastOp runs one forecast-aging operation untraced.
func forecastOp(in opInput) (opRecord, error) {
	t0 := nanotime()
	sys, err := quickConfig(in).Build()
	if err != nil {
		return opRecord{}, err
	}
	t1 := nanotime()
	rt := &runTimer{Target: forecast.SystemTarget(sys)}
	res := forecast.RunTarget(rt, forecastConfig())
	t2 := nanotime()
	return opRecord{wallNs: t2 - t0, buildNs: t1 - t0, runNs: rt.ns, insts: totalInsts(sys), out: forecastOutcome(res)}, nil
}

// tracedOp is one library operation run with every layer shim in place.
type tracedOp struct {
	opRecord
	loop     loopTotals
	accesses uint64
	ageNs    int64 // forecast loop self time: the analytic aging step
	invNs    int64
	phases   int
}

// simTraced runs a simulation through the traced build.
func simTraced(c core.Config, win window, op int, tr *tracer) (tracedOp, error) {
	var t tracedOp
	root := tr.begin(op, -1, "op")
	b := tr.begin(op, root, "build")
	sys, _, err := buildTraced(c, &t.loop)
	if err != nil {
		return t, err
	}
	tr.end(b)
	w := tr.begin(op, root, "warmup")
	sys.Run(win.warmup)
	tr.end(w)
	m := tr.begin(op, root, "measure")
	r := sys.Run(win.measure)
	tr.end(m)
	tr.end(root)
	sp := tr.spans
	t.wallNs = sp[root].End - sp[root].Start
	t.buildNs = sp[b].End - sp[b].Start
	t.runNs = sp[m].End - sp[w].Start
	t.accesses = sys.Accesses()
	t.out = runOutcome(r)
	return t, nil
}

// forecastTraced runs a forecast-aging operation through the traced build
// and the traced forecast target.
func forecastTraced(in opInput, op int, tr *tracer) (tracedOp, error) {
	var t tracedOp
	root := tr.begin(op, -1, "op")
	b := tr.begin(op, root, "build")
	sys, llc, err := buildTraced(quickConfig(in), &t.loop)
	if err != nil {
		return t, err
	}
	tr.end(b)
	fs := tr.begin(op, root, "forecast")
	ft := &tracedForecast{sys: sys, llc: llc, tr: tr, op: op, root: fs, phase: -1}
	res := forecast.RunTarget(ft, forecastConfig())
	if ft.phase >= 0 {
		tr.end(ft.phase)
	}
	tr.end(fs)
	tr.end(root)
	calls := make([]interval, len(ft.calls))
	for i, id := range ft.calls {
		calls[i] = tr.spans[id].interval()
	}
	t.ageNs = selfTime(tr.spans[fs].interval(), calls)
	t.wallNs = tr.spans[root].End - tr.spans[root].Start
	t.buildNs = tr.spans[b].End - tr.spans[b].Start
	t.runNs = ft.runNs
	t.invNs = ft.invNs
	t.phases = ft.phases
	t.accesses = sys.Accesses()
	t.out = forecastOutcome(res)
	return t, nil
}

// newArrayNs times a standalone nvm.NewArray at the configuration's
// geometry and endurance model, returning the time and the frames built.
func newArrayNs(c core.Config) (int64, int, error) {
	pol, _, _, nvmWays, err := core.BuildPolicy(c)
	if err != nil {
		return 0, 0, err
	}
	s := nanotime()
	arr := nvm.NewArray(c.LLCSets, nvmWays, nvm.EnduranceModel{Mean: c.EnduranceMean, CV: c.EnduranceCV},
		stats.NewRNG(c.Seed^0xE7D5), pol.Granularity())
	return nanotime() - s, len(arr.Frames()), nil
}

// bdiReplay times bdi.SizeOf over the recorded insert contents and
// returns ns per call and compressed/raw bytes.
func bdiReplay(sample []byte) (nsPerCall, compressed float64) {
	n := len(sample) / bdi.BlockSize
	if n == 0 {
		return 0, 0
	}
	size := 0
	s := nanotime()
	for i := 0; i < n; i++ {
		size += bdi.SizeOf(sample[i*bdi.BlockSize : (i+1)*bdi.BlockSize])
	}
	d := nanotime() - s
	return float64(d) / float64(n), float64(size) / float64(len(sample))
}
