package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cliutil"
)

// sweepTestBody expands to a 2×2 grid of quick runs: two policies at two
// CPth points, the paper's sweep shape in miniature.
const sweepTestBody = `{
  "name": "grid",
  "base": {
    "config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 200000},
    "warmup_cycles": 100000,
    "measure_cycles": 400000
  },
  "axes": [
    {"field": "policy", "values": ["CA", "CA_RWR"]},
    {"field": "cpth", "values": [30, 40]}
  ],
  "concurrency": 2
}`

func TestSweepSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"unknown-field", `{"axes":[{"field":"bogus","values":[1]}]}`, "unknown field"},
		{"unknown-top-level", `{"axess":[]}`, "unknown field"},
		{"repeated-axis", `{"axes":[{"field":"cpth","values":[1]},{"field":"cpth","values":[2]}]}`, "repeated"},
		{"empty-values", `{"axes":[{"field":"cpth","values":[]}]}`, "no values"},
		{"cap-ceiling", `{"max_children": 5000}`, "ceiling"},
		{"conc-ceiling", `{"concurrency": 5000}`, "ceiling"},
		{"trailing", `{"axes":[]} {}`, "trailing"},
		{"over-cap", `{"max_children": 3, "axes":[{"field":"cpth","values":[1,2,3,4]}]}`, "max_children"},
		{"bad-child", `{"axes":[{"field":"cpth","values":[100]},{"field":"policy","values":["CA"]}]}`, "CPth"},
		{"bad-value-type", `{"axes":[{"field":"cpth","values":["forty"]}]}`, "cpth"},
		{"strict-tournament", `{"axes":[{"field":"tournament","values":[{"candidatez":[]}]}]}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := DecodeSweepSpec([]byte(tc.body))
			if err == nil {
				_, err = spec.Expand()
			}
			if err == nil {
				t.Fatalf("accepted %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSweepExpandDeterministic pins the expansion order (first axis
// slowest) and the axis labels — recovery depends on a resumed daemon
// re-expanding a journaled spec into the same children.
func TestSweepExpandDeterministic(t *testing.T) {
	spec, err := DecodeSweepSpec([]byte(sweepTestBody))
	if err != nil {
		t.Fatal(err)
	}
	children, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	wantLabels := []string{
		"policy=CA,cpth=30", "policy=CA,cpth=40",
		"policy=CA_RWR,cpth=30", "policy=CA_RWR,cpth=40",
	}
	if len(children) != len(wantLabels) {
		t.Fatalf("expanded to %d children, want %d", len(children), len(wantLabels))
	}
	for i, c := range children {
		if c.Label != wantLabels[i] {
			t.Errorf("child %d label %q, want %q", i, c.Label, wantLabels[i])
		}
	}
	if children[0].Request.Config.PolicyName != "CA" || children[0].Request.Config.CPth != 30 {
		t.Fatalf("child 0 config %+v", children[0].Request.Config)
	}
	if children[3].Request.Config.PolicyName != "CA_RWR" || children[3].Request.Config.CPth != 40 {
		t.Fatalf("child 3 config %+v", children[3].Request.Config)
	}
	// The base request must not be mutated by expansion.
	if spec.Base.Config.CPth != DefaultJobRequest().Config.CPth {
		t.Fatal("expansion mutated the base request")
	}

	again, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range children {
		if again[i].Request.CacheKey() != children[i].Request.CacheKey() {
			t.Fatalf("re-expansion changed child %d's cache key", i)
		}
	}
}

// TestSweepTournamentAxisIsolated pins that a tournament axis allocates
// a fresh bracket per child instead of writing through a base pointer
// shared by its siblings.
func TestSweepTournamentAxisIsolated(t *testing.T) {
	spec, err := DecodeSweepSpec([]byte(`{"axes":[{"field":"tournament","values":[
	  {"candidates":[{"policy":"CA","cpth":20},{"policy":"CA","cpth":30}]},
	  {"candidates":[{"policy":"CA","cpth":40},{"policy":"CA","cpth":50}]}
	]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	children, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 2 {
		t.Fatalf("expanded to %d children", len(children))
	}
	t0, t1 := children[0].Request.Config.Tournament, children[1].Request.Config.Tournament
	if t0 == nil || t1 == nil || t0 == t1 {
		t.Fatalf("children share a bracket: %p %p", t0, t1)
	}
	if t0.Candidates[0].CPth != 20 || t1.Candidates[0].CPth != 40 {
		t.Fatalf("bracket values leaked across children: %+v %+v", t0, t1)
	}
}

func waitSweepState(t *testing.T, url, id string, want SweepState) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st SweepStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("poll sweep %s: %v\n%s", id, err, b)
		}
		if st.State == want {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached %s", id, want)
	return SweepStatus{}
}

func TestSweepEndToEnd(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 8, CacheSize: 8})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(sweepTestBody))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: %d\n%s", resp.StatusCode, b)
	}
	var st SweepStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sweeps/"+st.ID {
		t.Fatalf("Location %q", loc)
	}
	if st.TotalChildren != 4 || len(st.Children) != 4 {
		t.Fatalf("submitted sweep reports %d/%d children", st.TotalChildren, len(st.Children))
	}

	final := waitSweepState(t, srv.URL, st.ID, SweepCompleted)
	if final.Completed != 4 || final.Failed != 0 || final.Canceled != 0 {
		t.Fatalf("final counts %+v", final)
	}
	if final.MeanIPC <= 0 {
		t.Fatalf("aggregate mean IPC %v", final.MeanIPC)
	}
	for _, c := range final.Children {
		if c.State != StateCompleted || c.MeanIPC == nil || *c.MeanIPC <= 0 {
			t.Fatalf("child %+v not completed with an IPC", c)
		}
		// Each child is a first-class job: its report is served.
		r, err := http.Get(srv.URL + "/v1/jobs/" + c.ID + "/report")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("child %s report: %d", c.ID, r.StatusCode)
		}
	}

	// The sweep list endpoint carries the same aggregate, without rows.
	resp, err = http.Get(srv.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var list []SweepStatus
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Completed != 4 || list[0].Children != nil {
		t.Fatalf("sweep list %s", b)
	}

	// Resubmitting the same sweep is all cache hits and completes
	// immediately — children share the jobs' content addresses.
	resp, err = http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(sweepTestBody))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var again SweepStatus
	if err := json.Unmarshal(b, &again); err != nil {
		t.Fatal(err)
	}
	final2 := waitSweepState(t, srv.URL, again.ID, SweepCompleted)
	if final2.CacheHits != 4 {
		t.Fatalf("resubmitted sweep hit the cache %d/4 times", final2.CacheHits)
	}
}

// TestSweepConcurrencyCap pins per-sweep admission pacing: with
// concurrency 1 the scheduler holds the next child until the previous
// one is terminal, regardless of free workers.
func TestSweepConcurrencyCap(t *testing.T) {
	m := newTestManager(t, Options{Workers: 4, QueueDepth: 8, CacheSize: NoCache})
	var violations atomic.Int32
	m.beforeRun = func(j *Job) {
		if j.sweepID == "" {
			return
		}
		// With cap 1, no sibling may be in flight when this child starts.
		for _, other := range m.Jobs() {
			if other.ID() != j.ID() && other.State() == StateRunning {
				violations.Add(1)
			}
		}
	}
	spec, err := DecodeSweepSpec([]byte(`{
	  "base": {"config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 200000},
	           "warmup_cycles": 50000, "measure_cycles": 200000},
	  "axes": [{"field": "cpth", "values": [20, 30, 40]}],
	  "concurrency": 1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sw.State() != SweepCompleted {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s", sw.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d children started with a sibling still running", n)
	}
	// Serial admission preserves expansion order.
	ids := sw.Children()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("children out of order: %v", ids)
		}
	}
}

// TestRetryRecoversTransientFailure pins the retry loop: an attempt that
// dies by panic is re-executed after backoff and the job still
// completes, with the attempt count on the wire.
func TestRetryRecoversTransientFailure(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 1, QueueDepth: 2, CacheSize: NoCache,
		Retries: 2, RetryBackoff: backoffFast(),
	})
	m.beforeAttempt = func(j *Job, attempt int) error {
		if attempt == 1 {
			panic("injected transient fault")
		}
		return nil
	}
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j.awaitTerminal()
	if j.State() != StateCompleted {
		t.Fatalf("state %v (%v), want completed", j.State(), j.Err())
	}
	if j.Attempts() != 2 {
		t.Fatalf("attempts %d, want 2", j.Attempts())
	}
	if st := j.Status(); st.Attempts != 2 {
		t.Fatalf("wire attempts %d", st.Attempts)
	}
	snap := m.Registry().Snapshot()
	if got := snap.Counters["server.jobs.retried"]; got != 1 {
		t.Fatalf("retried counter %d, want 1", got)
	}
	if got := snap.Counters["server.jobs.completed"]; got != 1 {
		t.Fatalf("completed counter %d, want 1", got)
	}
}

// TestRetryExhaustionFails pins the bound: a job whose every attempt
// dies transiently fails for good after Retries+1 attempts — it does
// not loop forever.
func TestRetryExhaustionFails(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 1, QueueDepth: 2, CacheSize: NoCache,
		Retries: 2, RetryBackoff: backoffFast(),
	})
	m.beforeAttempt = func(j *Job, attempt int) error {
		panic(fmt.Sprintf("attempt %d always dies", attempt))
	}
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j.awaitTerminal()
	if j.State() != StateFailed {
		t.Fatalf("state %v, want failed", j.State())
	}
	if j.Attempts() != 3 {
		t.Fatalf("attempts %d, want 3 (1 + 2 retries)", j.Attempts())
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %v does not record the panic", err)
	}
}

// TestPermanentErrorsDoNotRetry pins the failure classification: a plain
// error return is permanent and fails on the first attempt even with
// retries configured.
func TestPermanentErrorsDoNotRetry(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 1, QueueDepth: 2, CacheSize: NoCache,
		Retries: 3, RetryBackoff: backoffFast(),
	})
	m.beforeAttempt = func(j *Job, attempt int) error {
		return fmt.Errorf("deterministic config error")
	}
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j.awaitTerminal()
	if j.State() != StateFailed || j.Attempts() != 1 {
		t.Fatalf("state %v after %d attempts, want failed after 1", j.State(), j.Attempts())
	}
}

// TestRetryAfterDerived pins the Retry-After estimate: the floor before
// any observation, backlog-and-duration scaling after, and the 120s
// clamp.
func TestRetryAfterDerived(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 4, CacheSize: NoCache})
	if got := m.RetryAfterSeconds(); got != 1 {
		t.Fatalf("cold estimate %d, want the 1s floor", got)
	}
	m.observeDuration(10 * time.Second)
	// Empty queue: one slot of one 10s job across 2 workers → 5s.
	if got := m.RetryAfterSeconds(); got != 5 {
		t.Fatalf("estimate %d, want 5", got)
	}
	m.observeDuration(10 * time.Hour) // EWMA jumps; the clamp holds
	if got := m.RetryAfterSeconds(); got != 120 {
		t.Fatalf("estimate %d, want the 120s clamp", got)
	}
}

// TestQueueFullRetryAfterHeader pins the wire form: the 429's
// Retry-After is a positive integer number of seconds.
func TestQueueFullRetryAfterHeader(t *testing.T) {
	block := make(chan struct{})
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 1, CacheSize: NoCache})
	m.beforeRun = func(*Job) { <-block }
	defer close(block)
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	m.observeDuration(3 * time.Second) // pretend a 3s job history
	var rejected *http.Response
	for i := 0; i < 10; i++ {
		resp, _ := postJob(t, srv.URL, testBody)
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected = resp
			break
		}
	}
	if rejected == nil {
		t.Fatal("queue never filled")
	}
	secs, err := strconv.Atoi(rejected.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 120 {
		t.Fatalf("Retry-After %q not a clamped integer", rejected.Header.Get("Retry-After"))
	}
	// One worker and a backlog of 1 at ~3s each → more than the 1s floor.
	if secs < 3 {
		t.Fatalf("Retry-After %d ignores the observed duration", secs)
	}
}

func backoffFast() cliutil.Backoff {
	return cliutil.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}
}
