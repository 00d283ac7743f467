package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/jobstore"
)

// runService drives an in-process simd with two closed-loop HTTP clients.
func runService(o options, exp *expectations) (*result, error) {
	res := newResult()
	var svc *service
	var dir string
	defer func() {
		if svc != nil {
			svc.close()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	reps := setupReps
	if o.trace {
		reps = 1
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	defer hc.CloseIdleConnections()
	var clients []*svcClient
	for rep := 0; rep < reps; rep++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, err
			}
			svc = nil
			os.RemoveAll(dir)
		}
		s := nanotime()
		clients = clients[:0]
		for c := 0; c < serviceClients; c++ {
			clients = append(clients, &svcClient{id: c, http: hc, stream: newJobStream(o.seed, c), exp: exp, res: newResult()})
		}
		dir = filepath.Join(o.out, fmt.Sprintf("service-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		var err error
		if svc, err = startService(dir); err != nil {
			return nil, err
		}
		warm := &svcClient{http: hc, base: svc.base}
		r, err := warm.do(serviceWarmup(o.seed), -1)
		if err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		if err := plausible(r.out); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		if err := svc.close(); err != nil {
			return nil, err
		}
		if svc, err = startService(dir); err != nil { // replays the warm-up's journal
			svc = nil
			return nil, err
		}
		res.setups = append(res.setups, seconds(nanotime()-s))
	}

	var tracers []*tracer
	start := nanotime()
	deadline := start + o.windowNs()
	var wg sync.WaitGroup
	for _, c := range clients {
		c.base = svc.base
		if o.trace {
			c.tr = &tracer{}
			tracers = append(tracers, c.tr)
		}
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			c.loop(o.seed, deadline)
		}(c)
	}
	wg.Wait()

	end := start
	var walls, hitMs []float64
	var all []jobResult
	misses := 0
	for _, c := range clients {
		misses += c.repeatMisses
		res.attempted += c.res.attempted
		res.failed += c.res.failed
		res.failures = append(res.failures, c.res.failures...)
		if c.end > end {
			end = c.end
		}
		for _, r := range c.results {
			if !r.ok {
				continue
			}
			all = append(all, r)
			walls = append(walls, seconds(r.wallNs))
			if r.hit {
				hitMs = append(hitMs, float64(r.wallNs)/1e6)
			}
		}
	}
	if !o.trace {
		res.setE2E(walls, seconds(end-start))
		if len(hitMs) > 0 {
			res.extra["cache_hit_ms_p50"] = metric{percentile(hitMs, 0.5), "ms"}
		}
		res.extra["cache_repeat_misses"] = metric{float64(misses), "count"}
		return res, nil
	}

	// Traced run: server and store layers from the requests, then the
	// library layers from a few of the jobs replayed through the library.
	if err := svc.close(); err != nil {
		svc = nil
		return nil, err
	}
	svc = nil
	res.spans = mergeTracers(tracers)
	res.layers = map[string]metric{}
	if err := serviceLayers(o, res, all, dir, walls, hitMs); err != nil {
		return nil, err
	}
	return res, nil
}

// serviceLayers computes the traced service run's per-layer metrics.
func serviceLayers(o options, res *result, all []jobResult, dir string, walls, hitMs []float64) error {
	var submit, queue, runMs, report []float64
	var sims []jobResult
	for _, r := range all {
		if r.hit {
			continue
		}
		sims = append(sims, r)
		submit = append(submit, float64(r.submitNs)/1e6)
		report = append(report, float64(r.reportNs)/1e6)
		st := r.status
		if st.StartedAt != nil && st.FinishedAt != nil {
			queue = append(queue, float64(st.StartedAt.Sub(st.SubmittedAt))/1e6)
			runMs = append(runMs, float64(st.FinishedAt.Sub(*st.StartedAt))/1e6)
		}
	}
	mean := func(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
	l := res.layers
	l["server.submit_ms"] = metric{mean(submit), "ms"}
	l["server.queue_wait_ms"] = metric{mean(queue), "ms"}
	l["server.run_ms"] = metric{mean(runMs), "ms"}
	l["server.report_ms"] = metric{mean(report), "ms"}
	l["server.cache_hit_ratio"] = metric{ratio(float64(len(hitMs)), float64(len(all))), "ratio"}
	if len(hitMs) > 0 {
		l["server.cache_hit_ms_p50"] = metric{percentile(hitMs, 0.5), "ms"}
	}
	if samplesBeyond(len(walls), 0.9) >= minTail {
		l["server.job_s_p90"] = metric{percentile(walls, 0.9), "s"}
	}

	// The data directory's journal replays as simd's boot would.
	var replays []float64
	for i := 0; i < 3; i++ {
		s := nanotime()
		if _, err := jobstore.Replay(dir); err != nil {
			return err
		}
		replays = append(replays, float64(nanotime()-s)/1e6)
	}
	l["jobstore.replay_ms"] = metric{percentile(replays, 0.5), "ms"}

	// Appends and artifact writes, timed on the benchmark's own store.
	own := dir + "-own"
	if err := os.RemoveAll(own); err != nil {
		return err
	}
	defer os.RemoveAll(own)
	store, err := jobstore.Open(own)
	if err != nil {
		return err
	}
	var appendMs, putMs []float64
	for i, r := range sims {
		if i == 64 {
			break
		}
		s := nanotime()
		if err := store.Append(jobstore.Entry{Kind: jobstore.KindJob, ID: r.status.ID, State: "completed", CacheKey: r.key}); err != nil {
			store.Close()
			return err
		}
		appendMs = append(appendMs, float64(nanotime()-s)/1e6)
		s = nanotime()
		if _, err := store.PutArtifact(r.key, r.raw); err != nil {
			store.Close()
			return err
		}
		putMs = append(putMs, float64(nanotime()-s)/1e6)
	}
	if err := store.Close(); err != nil {
		return err
	}
	l["jobstore.append_ms"] = metric{mean(appendMs), "ms"}
	l["jobstore.put_artifact_ms"] = metric{mean(putMs), "ms"}

	// Library layers: the first simulated jobs again through the library,
	// untraced and traced; both must reproduce the job's report.
	agg := newLayerAgg()
	for i, r := range sims {
		if i == serviceSample {
			break
		}
		c := quickConfig(r.in.opInput)
		u, err := simOp(c, quickWindow)
		if err != nil {
			return err
		}
		if u.out != r.out {
			res.fail(fmt.Sprintf("job %s: library run %+v differs from the job's report %+v", r.status.ID, u.out, r.out))
			continue
		}
		if err := agg.traceOp(c, u, func(tr *tracer) (tracedOp, error) { return simTraced(c, quickWindow, -1-i, tr) }); err != nil {
			res.fail(fmt.Sprintf("job %s: %v", r.status.ID, err))
		}
	}
	for k, v := range agg.metrics(false) {
		l[k] = v
	}
	res.spans.absorb(agg.tr)
	return nil
}

// mergeTracers concatenates the clients' spans, renumbering IDs.
func mergeTracers(ts []*tracer) *tracer {
	out := &tracer{}
	for _, t := range ts {
		out.absorb(t)
	}
	return out
}
