package main

import (
	"math"
	"strconv"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, kind := range []string{simLong, forecastAging} {
		a, b, c := newInputStream(kind, 7), newInputStream(kind, 7), newInputStream(kind, 8)
		differs := false
		for i := 0; i < 16; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("%s input %d: %+v vs %+v for the same seed", kind, i, x, y)
			}
			differs = differs || x != z
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", kind)
		}
	}
	for client := 0; client < serviceClients; client++ {
		a, b := newJobStream(7, client), newJobStream(7, client)
		for i := 0; i < 40; i++ {
			if x, y := a.next(), b.next(); x != y {
				t.Fatalf("client %d request %d: %+v vs %+v for the same seed", client, i, x, y)
			}
		}
	}
}

func TestSimLongInputsCycleMixes(t *testing.T) {
	s := newInputStream(simLong, 3)
	seen := map[uint64]bool{}
	for i := 0; i < 8; i++ {
		in := s.next()
		if want := simMixes[i%4]; in.Mix != want || in.Policy != "CP_SD" {
			t.Errorf("input %d: %+v, want mix %d under CP_SD", i, in, want)
		}
		if seen[in.Seed] {
			t.Errorf("input %d reuses seed %d", i, in.Seed)
		}
		seen[in.Seed] = true
	}
}

func TestJobStreamGrid(t *testing.T) {
	s := newJobStream(5, 0)
	var reqs []jobInput
	for i := 0; i < 24; i++ {
		reqs = append(reqs, s.next())
	}
	for i, r := range reqs {
		if i%4 == 3 {
			if r.RepeatOf < i-3 || r.RepeatOf >= i || reqs[r.RepeatOf].Unique < 0 {
				t.Errorf("request %d repeats %d, want one of the three distinct requests before it", i, r.RepeatOf)
			}
			continue
		}
		if r.RepeatOf != -1 {
			t.Fatalf("request %d: unexpected repeat", i)
		}
		if want := servicePolicies[r.Unique%3]; r.Policy != want {
			t.Errorf("request %d: policy %s, want %s (policy varies fastest)", i, r.Policy, want)
		}
		if r.Unique%3 != 0 && r.Seed != reqs[i-1].Seed && reqs[i-1].Unique >= 0 {
			t.Errorf("request %d: seed changed inside a grid row", i)
		}
	}
	if serviceWarmup(5).Seed < 1<<31 {
		t.Errorf("the warm-up seed can collide with a timed request's")
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{7}, 0.9, 7},
		{[]float64{10, 20, 30}, 0, 10},
		{[]float64{10, 20, 30}, 1, 30},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples is not NaN")
	}
}

func TestSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{100, 10}, {99, 10}, {90, 9}, {10, 1}, {0, 0}} {
		if got := samplesBeyond(c.n, 0.9); got != c.want {
			t.Errorf("samplesBeyond(%d, 0.9) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 30}, {20, 40}, {90, 120}, {-5, 5}, {50, 50}}
	// Covered: [0,5) + [10,40) + [90,100) = 5 + 30 + 10.
	if got := covered(parent, children); got != 45 {
		t.Errorf("covered = %d, want 45", got)
	}
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestTracerAbsorbRenumbers(t *testing.T) {
	a, b := &tracer{}, &tracer{}
	a.add(0, -1, "op", 0, 10)
	r := b.add(1, -1, "op", 0, 10)
	b.add(1, r, "build", 1, 2)
	a.absorb(b)
	if got := a.spans[2]; got.ID != 2 || got.Parent != 1 {
		t.Errorf("absorbed child span = %+v, want ID 2 under parent 1", got)
	}
}

// TestTracedMatchesUntraced pins the traced build to core.Config.Build:
// the same operation simulates bit for bit the same with the shims in.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, pol := range servicePolicies {
		c := quickConfig(opInput{Mix: 4, Seed: 11, Policy: pol})
		u, err := simOp(c, quickWindow)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := simTraced(c, quickWindow, 0, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		if tr.out != u.out {
			t.Errorf("%s: traced %+v, untraced %+v", pol, tr.out, u.out)
		}
		if tr.loop.lookup.calls == 0 || tr.loop.next.calls != tr.accesses {
			t.Errorf("%s: shims saw %d lookups and %d Next calls for %d accesses",
				pol, tr.loop.lookup.calls, tr.loop.next.calls, tr.accesses)
		}
	}
}

// TestPerturbedExpectationFails runs the first two forecasts of the
// default seed against the recorded outcomes, and then against a copy in
// which the first lifetime is one ulp off. The first run passes. The
// second counts exactly one failed operation.
func TestPerturbedExpectationFails(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: forecastAging, seed: defaultSeed, seconds: 1e-9}
	res, err := runLibrary(forecastAging, o, exp)
	if err != nil {
		t.Fatal(err)
	}
	// The shortest window still runs one whole BH + CP_SD cycle.
	if res.attempted != 2 || res.failed != 0 {
		t.Fatalf("recorded outcome: %d attempted, %d failed: %v", res.attempted, res.failed, res.failures)
	}

	ops := append([]outcome(nil), exp.Ops[forecastAging]...)
	life, err := strconv.ParseFloat(ops[0].Lifetime, 64)
	if err != nil {
		t.Fatal(err)
	}
	ops[0].Lifetime = exact(math.Nextafter(life, math.Inf(1)))
	bad := &expectations{Seed: exp.Seed, Ops: map[string][]outcome{forecastAging: ops}}
	res, err = runLibrary(forecastAging, o, bad)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 2 || res.failed != 1 {
		t.Errorf("perturbed outcome: %d attempted, %d failed, want 2 and 1", res.attempted, res.failed)
	}
}

func TestCheckSkipsOtherSeeds(t *testing.T) {
	e := &expectations{Seed: 1, Ops: map[string][]outcome{simLong: {{MeanIPC: "0.5", Hits: 1}}}}
	got := outcome{MeanIPC: "0.25", Hits: 2}
	if err := e.check(simLong, 0, got, 2); err != nil {
		t.Errorf("seed 2 checked against seed 1's outcome: %v", err)
	}
	if err := e.check(simLong, 0, got, 1); err == nil {
		t.Errorf("a wrong outcome for the recorded seed passed")
	}
	if err := e.check(simLong, 0, outcome{MeanIPC: "0", Hits: 1}, 2); err == nil {
		t.Errorf("a zero IPC passed the plausibility check")
	}
}

// TestCheckRepeat: a repeat must carry the original's report and be
// served from the cache. Only a repeat of the request just before may
// miss the cache; it is counted as missed, not failed.
func TestCheckRepeat(t *testing.T) {
	orig := jobResult{ok: true, report: map[string]any{"mean_ipc": "0.5"}}
	hit := jobResult{hit: true, report: map[string]any{"mean_ipc": "0.5"}}
	miss := jobResult{report: map[string]any{"mean_ipc": "0.5"}}
	wrong := jobResult{hit: true, report: map[string]any{"mean_ipc": "0.25"}}
	for _, c := range []struct {
		name         string
		k, of        int
		r, orig      jobResult
		missed, fail bool
	}{
		{"hit on the request before", 7, 6, hit, orig, false, false},
		{"hit on an older request", 7, 4, hit, orig, false, false},
		{"miss on the request before", 7, 6, miss, orig, true, false},
		{"miss on an older request", 7, 5, miss, orig, false, true},
		{"different report", 7, 6, wrong, orig, false, true},
		{"failed original", 7, 6, hit, jobResult{}, false, true},
	} {
		missed, err := checkRepeat(c.k, c.of, c.r, c.orig)
		if missed != c.missed || (err != nil) != c.fail {
			t.Errorf("%s: missed %v, err %v; want missed %v, failed %v", c.name, missed, err, c.missed, c.fail)
		}
	}
}
