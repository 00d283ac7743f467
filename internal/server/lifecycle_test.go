package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobstore"
)

// TestLifecycleTransitions tries every target state on a job in every
// in-memory state. The legal moves listed here succeed and land on the
// state the journal state maps to; every other move is refused and
// changes nothing, so no terminal state can be left — a requeue or
// lease expiry of a completed job is a no-op.
func TestLifecycleTransitions(t *testing.T) {
	targets := []JobState{StateQueued, StateRunning, stateLeased, stateRetrying, stateRequeued,
		StateCompleted, StateFailed, StateCanceled, StateScreened, jobstore.StateCheckpoint}
	for _, to := range targets {
		if _, ok := lifecycle[to]; !ok {
			t.Errorf("lifecycle table has no row for %q", to)
		}
	}
	if len(lifecycle) != len(targets) {
		t.Errorf("lifecycle table has %d rows, want %d", len(lifecycle), len(targets))
	}
	targets = append(targets, "unknown")

	into := map[JobState]JobState{
		StateRunning: StateRunning, stateLeased: StateRunning,
		stateRetrying: StateQueued, stateRequeued: StateQueued,
		StateCompleted: StateCompleted, StateFailed: StateFailed,
		StateCanceled: StateCanceled, StateScreened: StateScreened,
	}
	legal := map[JobState][]JobState{
		StateQueued:  {StateRunning, stateLeased, StateCompleted, StateFailed, StateCanceled, StateScreened},
		StateRunning: {stateRetrying, stateRequeued, StateCompleted, StateFailed, StateCanceled},
	}
	res := &Result{CPthWinner: -1}
	resultFor := func(to JobState) *Result {
		if to == StateCompleted {
			return res
		}
		return nil
	}
	for _, from := range []JobState{StateQueued, StateRunning, StateCompleted, StateFailed, StateCanceled, StateScreened} {
		for _, to := range targets {
			j := newJob("job-000001", DefaultJobRequest())
			if from != StateQueued && !j.transition(from, resultFor(from), nil) {
				t.Fatalf("cannot reach %s from a new job", from)
			}
			before := j.Status()
			ok := j.transition(to, resultFor(to), nil)
			want := slices.Contains(legal[from], to)
			after := j.Status()
			switch {
			case ok != want:
				t.Errorf("%s → %s: moved %v, want %v", from, to, ok, want)
			case ok && after.State != into[to]:
				t.Errorf("%s → %s: landed on %s, want %s", from, to, after.State, into[to])
			case !ok && !reflect.DeepEqual(before, after):
				t.Errorf("%s → %s: refused but changed the job:\n%+v\n%+v", from, to, before, after)
			}
		}
	}
}

// repeatBody is a run small enough to submit a thousand times: each
// iteration varies the seed, so every first submission misses.
const repeatBody = `{"config": {"llc_sets": 4, "nvm_ways": 1, "scale": 0.05, "l2_size_kb": 8, "seed": %d},
  "warmup_cycles": 0, "measure_cycles": 2000}`

// TestResubmitAfterCompletionHits pins the completion order: a result
// is in the cache before the transition that wakes the job's waiters,
// so a client that saw the job finish and resubmits always hits. Four
// clients keep the workers contended, which widens any window between
// the wake and the cache write; the cache holds every result, so no
// eviction can stand in for that window.
func TestResubmitAfterCompletionHits(t *testing.T) {
	const clients, rounds = 4, 250
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 8, CacheSize: clients * rounds})
	var misses atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				req, err := DecodeJobRequest([]byte(fmt.Sprintf(repeatBody, c*rounds+i+1)))
				if err != nil {
					t.Error(err)
					return
				}
				j, _, err := m.Submit(req)
				if err != nil {
					t.Error(err)
					return
				}
				j.awaitTerminal()
				if j.State() != StateCompleted {
					t.Errorf("run ended %s: %v", j.State(), j.Err())
					return
				}
				again, _, err := m.Submit(req)
				if err != nil {
					t.Error(err)
					return
				}
				if !again.Status().CacheHit {
					misses.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := misses.Load(); n > 0 {
		t.Fatalf("%d of %d resubmissions after completion missed the cache", n, clients*rounds)
	}
}

// crashSweepBody is a three-child sweep of tiny runs, all admitted at
// once so the fleet the test plays holds several leases together.
const crashSweepBody = `{"base": {"config": {"llc_sets": 4, "nvm_ways": 1, "scale": 0.05, "l2_size_kb": 8},
  "warmup_cycles": 1000, "measure_cycles": 20000},
  "axes": [{"field": "seed", "values": [1, 2, 3]}], "concurrency": 3}`

// TestRecoveryAtEveryJournalOffset crashes a store-backed sweep at every
// journal offset, plus once between the sweep's and its last child's
// completion entries in the order the recorded run did not write them.
// The recorded run leases its children to fleet workers the test plays:
// the first lease is abandoned until it expires and the second attempt
// fails transiently, so the journal holds leased, requeued and retrying
// entries. A fresh manager over each crash image, plus the artifacts,
// must end every job completed with the uninterrupted run's report
// bytes, and no job may journal two terminal entries.
func TestRecoveryAtEveryJournalOffset(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache, Store: st,
		LeaseTTL: 300 * time.Millisecond, Retries: 2, RetryBackoff: backoffFast()})
	spec, err := DecodeSweepSpec([]byte(crashSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for grants := 0; sw.State() != SweepCompleted; {
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not complete: %+v", m.SweepStatus(sw, true))
		}
		g, err := m.AcquireLease(context.Background(), fmt.Sprintf("w%d", grants), 50*time.Millisecond)
		if errors.Is(err, ErrNoWork) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		grants++
		var req fleet.CompleteRequest
		want := fleet.ResolutionCompleted
		switch grants {
		case 1:
			continue // abandoned: the lease expires and the job requeues
		case 2:
			req, want = fleet.CompleteRequest{Error: "injected transient fault", Transient: true}, fleet.ResolutionRequeued
		default:
			req.Artifact, req.ArtifactSHA = executeGrant(t, g)
		}
		if cr, err := m.CompleteLease(g.Token, req); err != nil || cr.Resolution != want {
			t.Fatalf("grant %d: complete = %+v, %v; want %s", grants, cr, err, want)
		}
	}
	reports := map[string][]byte{}
	for _, id := range sw.Children() {
		j, _ := m.Job(id)
		reports[id] = renderReport(t, j)
	}
	m.Close()
	st.Close()

	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	lines = lines[:len(lines)-1] // the text after the final newline is empty
	journals := make([]string, 0, len(lines)+2)
	for k := 0; k <= len(lines); k++ {
		journals = append(journals, strings.Join(lines[:k], ""))
	}
	// The sweep finalizes on seeing its last child terminal, which can
	// precede that child's journaled completion; the recorded run wrote
	// the two last, in either order. Crash between them in the other.
	n := len(lines)
	journals = append(journals, strings.Join(lines[:n-2], "")+lines[n-1])
	for _, state := range []JobState{stateLeased, stateRequeued, stateRetrying} {
		if !strings.Contains(string(journal), `"state":"`+string(state)+`"`) {
			t.Fatalf("recorded journal has no %s entry", state)
		}
	}
	recoverEveryCrashImage(t, dir, journals, reports, sw.ID())
}

// recoverEveryCrashImage boots a fresh manager over each journal prefix
// of a recorded run in dir, plus its artifacts. Every recovered job must
// end completed with the recorded run's report bytes and journal exactly
// one terminal entry; a sweep named sweepID, when recovered, must
// complete with all its children.
func recoverEveryCrashImage(t *testing.T, dir string, journals []string, reports map[string][]byte, sweepID string) {
	t.Helper()
	artifacts, err := os.ReadDir(filepath.Join(dir, "artifacts"))
	if err != nil {
		t.Fatal(err)
	}

	for k, prefix := range journals {
		crash := t.TempDir()
		if err := os.MkdirAll(filepath.Join(crash, "artifacts"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, a := range artifacts {
			data, err := os.ReadFile(filepath.Join(dir, "artifacts", a.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(crash, "artifacts", a.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(crash, "journal.jsonl"), []byte(prefix), 0o644); err != nil {
			t.Fatal(err)
		}

		st2 := openStore(t, crash)
		m2, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st2})
		if err != nil {
			t.Fatalf("offset %d: %v", k, err)
		}
		jobs := m2.Jobs()
		for _, j := range jobs {
			waitFor(t, func() bool { return j.State().Terminal() })
			if st := j.Status(); st.State != StateCompleted {
				t.Fatalf("offset %d: job %s ended %s (%s)", k, j.ID(), st.State, st.Error)
			}
			want, ok := reports[j.ID()]
			if !ok {
				t.Fatalf("offset %d: recovery invented job %s", k, j.ID())
			}
			if got := renderReport(t, j); !bytes.Equal(got, want) {
				t.Fatalf("offset %d: job %s report differs from the uninterrupted run", k, j.ID())
			}
		}
		if rsw, ok := m2.Sweep(sweepID); ok {
			if len(jobs) != len(reports) {
				t.Fatalf("offset %d: recovered %d of the sweep's %d children", k, len(jobs), len(reports))
			}
			waitFor(t, func() bool { return rsw.State().Terminal() })
			if rsw.State() != SweepCompleted {
				t.Fatalf("offset %d: sweep ended %s", k, rsw.State())
			}
		}
		m2.Close()
		st2.Close()

		entries, err := jobstore.Replay(crash)
		if err != nil {
			t.Fatal(err)
		}
		terminal := map[string]int{}
		for _, e := range entries {
			if e.Kind == jobstore.KindJob && JobState(e.State).Terminal() {
				terminal[e.ID]++
			}
		}
		for _, j := range jobs {
			if terminal[j.ID()] != 1 {
				t.Fatalf("offset %d: job %s journaled %d terminal entries, want 1", k, j.ID(), terminal[j.ID()])
			}
		}
	}
}

// TestStandaloneCreationJournaledFirst records standalone jobs and
// crashes at every journal offset. Each job's creation entry must come
// before its run entries, so no crash image reads a finished job as
// queued and runs it again.
func TestStandaloneCreationJournaledFirst(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 8, CacheSize: NoCache, Store: st})
	var jobs []*Job
	for seed := 1; seed <= 4; seed++ {
		j, _, err := m.Submit(tinyRequest(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	reports := map[string][]byte{}
	for _, j := range jobs {
		waitFor(t, func() bool { return j.State().Terminal() })
		reports[j.ID()] = renderReport(t, j)
	}
	m.Close()
	st.Close()

	entries, err := jobstore.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Kind != jobstore.KindJob {
			continue
		}
		if !seen[e.ID] && (e.State != string(StateQueued) || e.Request == nil) {
			t.Fatalf("job %s: first journal entry is %q, not its creation entry", e.ID, e.State)
		}
		seen[e.ID] = true
	}

	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	journals := make([]string, 0, len(lines))
	for k := range lines {
		journals = append(journals, strings.Join(lines[:k], ""))
	}
	recoverEveryCrashImage(t, dir, journals, reports, "")
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
	}
}

// renderReport renders a completed job's JSON report, the bytes
// GET /v1/jobs/{id}/report serves.
func renderReport(t *testing.T, j *Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jobReport(j).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueueFullLeavesNoJob: a submission the full queue rejects spends
// no ID and journals nothing, so recovery has no job to run.
func TestQueueFullLeavesNoJob(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 1, CacheSize: NoCache, Store: st})
	for seed := 1; seed <= 2; seed++ {
		_, _, err := m.Submit(tinyRequest(t, seed))
		if want := seed == 2; errors.Is(err, ErrQueueFull) != want {
			t.Fatalf("submission %d: err = %v", seed, err)
		}
	}
	m.Close()
	st.Close()
	entries, err := jobstore.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Kind == jobstore.KindJob && e.ID != "job-000001" {
			t.Fatalf("rejected submission journaled %+v", e)
		}
	}
}

// tinyRequest is a job of the crash sweep's size, varied by seed.
func tinyRequest(t *testing.T, seed int) JobRequest {
	t.Helper()
	req, err := DecodeJobRequest([]byte(fmt.Sprintf(`{"config": {"llc_sets": 4, "nvm_ways": 1,
	  "scale": 0.05, "l2_size_kb": 8, "seed": %d}, "warmup_cycles": 1000, "measure_cycles": 20000}`, seed)))
	if err != nil {
		t.Fatal(err)
	}
	return req
}
