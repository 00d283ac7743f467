package main

import (
	"fmt"

	"repro/internal/core"
)

// libWorkload is a library workload: how to configure one operation and
// run it untraced and traced.
type libWorkload struct {
	config   func(opInput) core.Config
	untraced func(opInput) (opRecord, error)
	traced   func(opInput, int, *tracer) (tracedOp, error)
	// cycle is the period of the inputs' mix or policy pattern. A run
	// ends on a whole cycle, so every mix or policy weighs the same in
	// the operation-time median of every run.
	cycle int
}

var libWorkloads = map[string]libWorkload{
	simLong: {
		cycle:    len(simMixes),
		config:   simLongConfig,
		untraced: func(in opInput) (opRecord, error) { return simOp(simLongConfig(in), simLongWindow) },
		traced: func(in opInput, op int, tr *tracer) (tracedOp, error) {
			return simTraced(simLongConfig(in), simLongWindow, op, tr)
		},
	},
	forecastAging: {cycle: 2, config: quickConfig, untraced: forecastOp, traced: forecastTraced},
}

// runLibrary runs a library workload in a closed loop on one goroutine.
func runLibrary(name string, o options, exp *expectations) (*result, error) {
	w := libWorkloads[name]
	res := newResult()
	var stream *inputStream
	reps := setupReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		s := nanotime()
		stream = newInputStream(name, o.seed)
		warm := stream.next()
		if _, err := w.untraced(warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if o.trace {
			if _, err := w.traced(warm, -1, &tracer{}); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		res.setups = append(res.setups, seconds(nanotime()-s))
	}

	agg := newLayerAgg()
	var walls []float64
	var runNs int64
	var insts uint64
	start := nanotime()
	deadline := start + o.windowNs()
	end := start
	for i := 0; i == 0 || i%w.cycle != 0 || nanotime() < deadline; i++ {
		in := stream.next()
		res.attempted++
		u, err := w.untraced(in)
		end = nanotime()
		if err != nil {
			res.fail(fmt.Sprintf("op %d: %v", i, err))
			continue
		}
		walls = append(walls, seconds(u.wallNs))
		runNs += u.runNs
		insts += u.insts
		if !res.check(exp.check(name, i, u.out, o.seed)) || !o.trace {
			continue
		}
		if err := agg.traceOp(w.config(in), u, func(tr *tracer) (tracedOp, error) { return w.traced(in, i, tr) }); err != nil {
			res.fail(fmt.Sprintf("op %d: %v", i, err))
		}
	}
	if o.trace {
		res.layers = agg.metrics(name == forecastAging)
		res.spans = agg.tr
		return res, nil
	}
	res.setE2E(walls, seconds(end-start))
	res.extra["sim_minst_per_s"] = metric{ratio(float64(insts)/1e6, seconds(runNs)), "Minst/s"}
	return res, nil
}

// layerAgg sums the per-layer figures of traced operations.
type layerAgg struct {
	tr                                   *tracer
	ops                                  int
	untracedNs, tracedNs, buildNs, hierS int64
	arrNs                                int64
	frames                               int
	accesses                             uint64
	next, content, lookup, insert, epoch acc
	hits, nvmWrites                      uint64
	bdiNs, bdiRatio                      float64
	bdiOps                               int
	runNs, ageNs, invNs                  int64
	phases                               int
}

func newLayerAgg() *layerAgg { return &layerAgg{tr: &tracer{}} }

// traceOp runs the operation whose untraced record is u again through
// run, with every shim in place; checks that the traced run simulated
// exactly what the untraced one did; times a standalone nvm.NewArray at
// the operation's geometry; and adds the figures up.
func (a *layerAgg) traceOp(c core.Config, u opRecord, run func(*tracer) (tracedOp, error)) error {
	t, err := run(a.tr)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	if t.out != u.out {
		return fmt.Errorf("traced run %+v differs from untraced %+v", t.out, u.out)
	}
	arrNs, frames, err := newArrayNs(c)
	if err != nil {
		return err
	}
	a.ops++
	a.untracedNs += u.wallNs
	a.tracedNs += t.wallNs
	a.buildNs += u.buildNs
	a.arrNs += arrNs
	a.frames += frames
	l := &t.loop
	a.accesses += t.accesses
	self := t.runNs - l.shimNs()
	a.hierS += self
	for _, p := range []struct{ dst, src *acc }{
		{&a.next, &l.next}, {&a.content, &l.content}, {&a.lookup, &l.lookup},
		{&a.insert, &l.insert}, {&a.epoch, &l.endEpoch},
	} {
		p.dst.ns += p.src.ns
		p.dst.calls += p.src.calls
	}
	a.hits += l.hits
	a.nvmWrites += l.nvmWrites
	if ns, r := bdiReplay(l.bdiSample); ns > 0 {
		a.bdiNs += ns
		a.bdiRatio += r
		a.bdiOps++
	}
	a.runNs += t.runNs
	a.ageNs += t.ageNs
	a.invNs += t.invNs
	a.phases += t.phases
	op := a.ops - 1
	for _, lt := range []struct {
		name string
		a    acc
	}{
		{"workload.next", l.next}, {"workload.content", l.content}, {"hybrid.lookup", l.lookup},
		{"hybrid.insert", l.insert}, {"dueling.end_epoch", l.endEpoch},
		{"hier.self", acc{self, t.accesses}},
	} {
		a.tr.totals = append(a.tr.totals, layerTotal{Op: op, Layer: lt.name, TotalNs: lt.a.ns, Calls: lt.a.calls})
	}
	return nil
}

// metrics turns the sums into per-layer metrics: times per call, counts
// per operation. The forecast figures are zero unless the operations were
// forecasts.
func (a *layerAgg) metrics(forecasts bool) map[string]metric {
	n := float64(a.ops)
	perOp := func(x float64) float64 { return ratio(x, n) }
	nsPer := func(x acc) float64 { return ratio(float64(x.ns), float64(x.calls)) }
	m := map[string]metric{
		"core.build_ms":           {perOp(float64(a.buildNs) / 1e6), "ms"},
		"nvm.new_array_ms":        {perOp(float64(a.arrNs) / 1e6), "ms"},
		"nvm.frames_built":        {perOp(float64(a.frames)), "count"},
		"workload.next_ns":        {nsPer(a.next), "ns"},
		"workload.next_calls":     {perOp(float64(a.next.calls)), "count"},
		"workload.content_ns":     {nsPer(a.content), "ns"},
		"workload.content_calls":  {perOp(float64(a.content.calls)), "count"},
		"hier.self_ns_per_access": {ratio(float64(a.hierS), float64(a.accesses)), "ns"},
		"hier.accesses":           {perOp(float64(a.accesses)), "count"},
		"hybrid.lookup_ns":        {nsPer(a.lookup), "ns"},
		"hybrid.lookups":          {perOp(float64(a.lookup.calls)), "count"},
		"hybrid.insert_ns":        {nsPer(a.insert), "ns"},
		"hybrid.inserts":          {perOp(float64(a.insert.calls)), "count"},
		"hybrid.hit_ratio":        {ratio(float64(a.hits), float64(a.lookup.calls)), "ratio"},
		"hybrid.nvm_writes":       {perOp(float64(a.nvmWrites)), "count"},
		"dueling.end_epoch_us":    {nsPer(a.epoch) / 1e3, "us"},
		"dueling.epochs":          {perOp(float64(a.epoch.calls)), "count"},
		"bdi.sizeof_ns":           {ratio(a.bdiNs, float64(a.bdiOps)), "ns"},
		"bdi.compressed_ratio":    {ratio(a.bdiRatio, float64(a.bdiOps)), "ratio"},
		"trace.overhead_ratio":    {ratio(float64(a.tracedNs), float64(a.untracedNs)), "ratio"},
		"trace.ops":               {n, "count"},
	}
	if forecasts {
		m["forecast.run_s"] = metric{perOp(seconds(a.runNs)), "s"}
		m["forecast.age_s"] = metric{perOp(seconds(a.ageNs)), "s"}
		m["forecast.invalidate_ms"] = metric{perOp(float64(a.invNs) / 1e6), "ms"}
		m["forecast.phases"] = metric{perOp(float64(a.phases)), "count"}
	}
	return m
}
