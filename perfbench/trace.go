package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/hier"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/nvm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// clockBase anchors every timestamp the benchmark takes.
var clockBase = time.Now()

// nanotime is the benchmark's monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// span is one timed interval: an operation, a build, a run window, a
// forecast phase, an aging step or an HTTP request. Parent is the ID of
// the enclosing span, -1 for an operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// layerTotal is the aggregate of one layer's calls within one operation:
// inside the access loop a span per call would mean millions per
// operation, so the shims sum time and count calls instead.
type layerTotal struct {
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	TotalNs int64  `json:"total_ns"`
	Calls   uint64 `json:"calls"`
}

// tracer keeps spans and layer totals in memory until the run ends.
type tracer struct {
	spans  []span
	totals []layerTotal
}

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: nanotime(), End: -1})
	return id
}

// end closes a span.
func (t *tracer) end(id int) { t.spans[id].End = nanotime() }

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(op, parent int, name string, start, end int64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// absorb appends another tracer's spans, renumbering their IDs, and its
// layer totals.
func (t *tracer) absorb(o *tracer) {
	off := len(t.spans)
	for _, s := range o.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	t.totals = append(t.totals, o.totals...)
}

// write stores the spans and layer totals as one JSON document.
func (t *tracer) write(path string, stamp map[string]any) error {
	blob, err := json.Marshal(map[string]any{"stamp": stamp, "spans": t.spans, "layers": t.totals})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// acc sums one layer's call time and count.
type acc struct {
	ns    int64
	calls uint64
}

func (a *acc) add(start int64) {
	a.ns += nanotime() - start
	a.calls++
}

// loopTotals are the access-loop layers of one traced operation.
type loopTotals struct {
	next, content acc // workload, via hier.Program
	lookup        acc // hybrid GetS/GetX, via hier.Target
	insert        acc // hybrid Insert (BDI sizing and NVM frame writes included)
	endEpoch      acc // dueling epoch close, via Target.EndEpoch
	hits          uint64
	nvmWrites     uint64
	bdiSample     []byte // insert contents kept for the BDI replay
	bdiSkip       int
}

// shimNs is the time the shims measured inside the access loop.
func (l *loopTotals) shimNs() int64 {
	return l.next.ns + l.content.ns + l.lookup.ns + l.insert.ns + l.endEpoch.ns
}

// BDI replay sampling: every bdiEvery-th insert carrying content is kept,
// up to bdiCap blocks per operation.
const (
	bdiEvery = 8
	bdiCap   = 1 << 14
)

// tracedTarget times the LLC behind the hierarchy's public Target
// interface.
type tracedTarget struct {
	inner hier.Target
	t     *loopTotals
}

func (x tracedTarget) GetS(core int, block uint64) hybrid.AccessResult {
	s := nanotime()
	r := x.inner.GetS(core, block)
	x.t.lookup.add(s)
	if r.Hit {
		x.t.hits++
	}
	return r
}

func (x tracedTarget) GetX(core int, block uint64) hybrid.AccessResult {
	s := nanotime()
	r := x.inner.GetX(core, block)
	x.t.lookup.add(s)
	if r.Hit {
		x.t.hits++
	}
	return r
}

func (x tracedTarget) Insert(core int, block uint64, dirty bool, tag hybrid.BlockTag, content []byte) hybrid.InsertOutcome {
	s := nanotime()
	out := x.inner.Insert(core, block, dirty, tag, content)
	x.t.insert.add(s)
	if out.Wrote && out.Part == hybrid.NVM {
		x.t.nvmWrites++
	}
	if content != nil && len(x.t.bdiSample) < bdiCap*64 {
		if x.t.bdiSkip == 0 {
			x.t.bdiSample = append(x.t.bdiSample, content...)
		}
		x.t.bdiSkip = (x.t.bdiSkip + 1) % bdiEvery
	}
	return out
}

func (x tracedTarget) EndEpoch() {
	s := nanotime()
	x.inner.EndEpoch()
	x.t.endEpoch.add(s)
}

func (x tracedTarget) CompressionEnabled() bool             { return x.inner.CompressionEnabled() }
func (x tracedTarget) Thresholds() hybrid.ThresholdProvider { return x.inner.Thresholds() }
func (x tracedTarget) Metrics() *metrics.Registry           { return x.inner.Metrics() }
func (x tracedTarget) Sync()                                { x.inner.Sync() }

// tracedProgram times a core's workload generator behind hier.Program.
// Owns and BumpVersion pass through untimed; their cost lands in the
// hierarchy's self time.
type tracedProgram struct {
	inner hier.Program
	t     *loopTotals
}

func (p tracedProgram) Next() workload.Access {
	s := nanotime()
	a := p.inner.Next()
	p.t.next.add(s)
	return a
}

func (p tracedProgram) Content(block uint64) []byte {
	s := nanotime()
	c := p.inner.Content(block)
	p.t.content.add(s)
	return c
}

func (p tracedProgram) ContentInto(dst []byte, block uint64) []byte {
	s := nanotime()
	c := p.inner.ContentInto(dst, block)
	p.t.content.add(s)
	return c
}

func (p tracedProgram) Owns(block uint64) bool   { return p.inner.Owns(block) }
func (p tracedProgram) BumpVersion(block uint64) { p.inner.BumpVersion(block) }

// buildTraced assembles the system core.Config.Build would build, from the
// same public parts (core.BuildPolicy, hybrid.New, hier.NewWithTarget),
// with the LLC target and every program wrapped in timing shims. Configs
// using set coloring or the invariant checker are not supported.
func buildTraced(c core.Config, t *loopTotals) (*hier.System, *hybrid.LLC, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	if c.Coloring != nil || c.CheckEvery > 0 {
		return nil, nil, fmt.Errorf("traced build: coloring and invariant checks are not supported")
	}
	apps, err := workload.NewMix(c.MixID, c.Seed, c.Scale)
	if err != nil {
		return nil, nil, err
	}
	pol, thr, sram, nvmWays, err := core.BuildPolicy(c)
	if err != nil {
		return nil, nil, err
	}
	repl := hybrid.FitLRU
	if c.NVMRRIP {
		repl = hybrid.FitRRIP
	}
	llc := hybrid.New(hybrid.Config{
		Sets:             c.LLCSets,
		SRAMWays:         sram,
		NVMWays:          nvmWays,
		Policy:           pol,
		Thresholds:       thr,
		Endurance:        nvm.EnduranceModel{Mean: c.EnduranceMean, CV: c.EnduranceCV},
		Sampler:          stats.NewRNG(c.Seed ^ 0xE7D5),
		HCROnly:          c.AblationHCROnly,
		NoGetXInvalidate: c.AblationNoInvalidate,
		MaterializeData:  c.MaterializeData,
		NVMReplacement:   repl,
		SetMapperAdvance: true,
	})
	progs := make([]hier.Program, len(apps))
	for i, a := range apps {
		progs[i] = tracedProgram{inner: a, t: t}
	}
	hcfg := hier.Config{
		L1Sets: c.L1Sets, L1Ways: c.L1Ways,
		L2Sets: c.L2SizeKB * 1024 / (c.L2Ways * 64), L2Ways: c.L2Ways,
		EpochCycles:    c.EpochCycles,
		IssueWidth:     4,
		Lat:            c.Latencies(),
		Prefetch:       c.EnablePrefetcher,
		PrefetchDegree: c.PrefetchDegree,
		Banks:          c.LLCBanks,
	}
	return hier.NewWithTarget(hcfg, tracedTarget{inner: hier.LLCTarget(llc), t: t}, progs), llc, nil
}

// tracedForecast is the forecast target of a traced system: it does what
// forecast.SystemTarget does, through the LLC the traced build returned
// (a system built on a wrapped target does not expose it), and records a
// span for every call the forecast loop makes. Run calls come in pairs —
// warm-up, then measurement — and each pair opens a forecast phase span.
// The time between the calls, RunTarget's self time, is the analytic
// aging step.
type tracedForecast struct {
	sys    *hier.System
	llc    *hybrid.LLC
	tr     *tracer
	op     int
	root   int // the RunTarget span
	phase  int // the current phase span, -1 before the first
	runs   int
	calls  []int // spans of every Target call
	runNs  int64
	invNs  int64
	phases int
}

func (f *tracedForecast) call(name string) (int, func()) {
	parent := f.phase
	if parent < 0 {
		parent = f.root
	}
	id := f.tr.begin(f.op, parent, name)
	f.calls = append(f.calls, id)
	return id, func() { f.tr.end(id) }
}

func (f *tracedForecast) PolicyName() string {
	_, done := f.call("forecast.policy_name")
	defer done()
	return f.llc.Policy().Name()
}

func (f *tracedForecast) Run(cycles uint64) forecast.Window {
	if f.runs%2 == 0 {
		if f.phase >= 0 {
			f.tr.end(f.phase)
		}
		f.phase = f.tr.begin(f.op, f.root, "forecast.phase")
		f.phases++
	}
	name := "forecast.warmup"
	if f.runs%2 == 1 {
		name = "forecast.measure"
	}
	f.runs++
	id, done := f.call(name)
	st := f.sys.Run(cycles)
	done()
	f.runNs += f.tr.spans[id].End - f.tr.spans[id].Start
	return forecast.Window{
		Cycles:          st.Cycles,
		MeanIPC:         st.MeanIPC,
		HitRate:         st.LLC.HitRate(),
		NVMBytesWritten: st.LLC.NVMBytesWritten,
	}
}

func (f *tracedForecast) Frames() []*nvm.Frame {
	_, done := f.call("forecast.frames")
	defer done()
	if arr := f.llc.Array(); arr != nil {
		return arr.Frames()
	}
	return nil
}

func (f *tracedForecast) ResetPhase() {
	_, done := f.call("forecast.reset_phase")
	defer done()
	f.llc.Array().ResetPhase()
}

func (f *tracedForecast) CapacityFraction() float64 {
	_, done := f.call("forecast.capacity")
	defer done()
	return f.llc.Array().EffectiveCapacityFraction()
}

func (f *tracedForecast) LiveFrames() int {
	_, done := f.call("forecast.live_frames")
	defer done()
	return f.llc.Array().LiveFrames()
}

func (f *tracedForecast) InvalidateUnfit() int {
	id, done := f.call("forecast.invalidate")
	n := f.llc.InvalidateUnfit()
	done()
	f.invNs += f.tr.spans[id].End - f.tr.spans[id].Start
	return n
}

func (f *tracedForecast) AdvanceWearCounter(n int) {
	_, done := f.call("forecast.advance_wear_counter")
	defer done()
	f.llc.Array().Counter().Advance(n)
}

func (f *tracedForecast) RotateSets(n int) int {
	_, done := f.call("forecast.rotate_sets")
	defer done()
	return f.llc.RotateNVMSets(n)
}
