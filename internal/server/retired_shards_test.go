package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// retiredMsg is the phrase every rejection of a shard count above 1
// carries (core.ErrShardsRetired).
const retiredMsg = "set-sharded engine is retired"

// TestReplayEngineEraJournal boots a daemon over a hand-written journal
// of the kind a build with the set-sharded engine left behind: a
// completed sequential job with its artifact, a queued "shards":4 job,
// and a running sweep over a "shards" axis. The daemon must boot, serve
// the sequential result byte-identically without re-running it, fail
// the engine job with an error naming the retired engine, and end the
// sweep without resuming any child. New submissions asking for shards
// are refused with 400.
func TestReplayEngineEraJournal(t *testing.T) {
	// The completed job's artifact and report, produced by a live run.
	m0 := newTestManager(t, Options{Workers: 1, QueueDepth: 4, CacheSize: 4})
	srv0 := httptest.NewServer(NewHandler(m0, nil))
	resp, b := postJob(t, srv0.URL, testBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, b)
	}
	var live JobStatus
	if err := json.Unmarshal(b, &live); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, srv0.URL, live.ID)
	wantReport := getReport(t, srv0.URL, live.ID)
	j0, _ := m0.Job(live.ID)
	artifact, err := encodeResult(live.CacheKey, j0.Result())
	if err != nil {
		t.Fatal(err)
	}
	srv0.Close()
	sum := sha256.Sum256(artifact)
	sha := hex.EncodeToString(sum[:])

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
		t.Fatal(err)
	}
	artifactPath := filepath.Join(dir, "artifacts", live.CacheKey)
	if err := os.WriteFile(artifactPath, artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	const quick = `"llc_sets":256,"scale":0.15,"l2_size_kb":64,"epoch_cycles":200000`
	seqReq := `{"config":{` + quick + `,"shards":1},"warmup_cycles":100000,"measure_cycles":700000,"epochs":true}`
	engineReq := `{"config":{` + quick + `,"shards":4},"warmup_cycles":100000,"measure_cycles":700000}`
	childReq := func(shards int) string {
		return fmt.Sprintf(`{"config":{%s,"shards":%d},"warmup_cycles":100000,"measure_cycles":400000}`, quick, shards)
	}
	sweepSpec := `{"base":{"config":{` + quick + `},"warmup_cycles":100000,"measure_cycles":400000},` +
		`"axes":[{"field":"shards","values":[0,4]}],"concurrency":1}`
	journal := strings.Join([]string{
		`{"ts":"2026-01-02T03:04:05Z","kind":"job","id":"job-000001","state":"queued","cache_key":"` + live.CacheKey + `","request":` + seqReq + `}`,
		`{"ts":"2026-01-02T03:04:05Z","kind":"job","id":"job-000001","state":"running","attempt":1}`,
		`{"ts":"2026-01-02T03:04:06Z","kind":"job","id":"job-000001","state":"completed","cache_key":"` + live.CacheKey + `","attempt":1,"artifact_sha":"` + sha + `"}`,
		`{"ts":"2026-01-02T03:04:07Z","kind":"job","id":"job-000002","state":"queued","cache_key":"` + strings.Repeat("e", 64) + `","request":` + engineReq + `}`,
		`{"ts":"2026-01-02T03:04:08Z","kind":"sweep","id":"sweep-000001","state":"running","spec":` + sweepSpec + `,"children":["job-000003","job-000004"]}`,
		`{"ts":"2026-01-02T03:04:08Z","kind":"job","id":"job-000003","state":"queued","sweep":"sweep-000001","label":"shards=0","cache_key":"` + strings.Repeat("a", 64) + `","request":` + childReq(0) + `}`,
		`{"ts":"2026-01-02T03:04:08Z","kind":"job","id":"job-000004","state":"queued","sweep":"sweep-000001","label":"shards=4","cache_key":"` + strings.Repeat("b", 64) + `","request":` + childReq(4) + `}`,
		`{"ts":"2026-01-02T03:04:09Z","kind":"job","id":"job-000004","state":"running","sweep":"sweep-000001","attempt":1}`,
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 8, CacheSize: 8, Store: st})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	if got := m.Registry().Snapshot().Counters["server.jobs.recovered"]; got != 4 {
		t.Fatalf("recovered counter %d, want 4", got)
	}

	// The sequential job: served from its artifact, byte-identical.
	j1, ok := m.Job("job-000001")
	if !ok {
		t.Fatal("sequential job lost in replay")
	}
	if s := j1.Status(); s.State != StateCompleted || !s.Recovered || !s.CacheHit {
		t.Fatalf("sequential job: %+v", s)
	}
	if got := getReport(t, srv.URL, "job-000001"); !bytes.Equal(got, wantReport) {
		t.Fatalf("replayed report differs from the live run:\n%s\n---\n%s", wantReport, got)
	}
	if disk, err := os.ReadFile(artifactPath); err != nil || !bytes.Equal(disk, artifact) {
		t.Fatalf("artifact rewritten across replay (err %v)", err)
	}

	// The engine job: failed, naming the retired engine.
	j2, ok := m.Job("job-000002")
	if !ok {
		t.Fatal("engine job lost in replay")
	}
	if s := j2.Status(); s.State != StateFailed || !strings.Contains(s.Error, retiredMsg) {
		t.Fatalf("engine job: state %s, error %q; want failed naming the retired engine", s.State, s.Error)
	}

	// The sweep: ended without resuming; no child ran.
	sw, ok := m.Sweep("sweep-000001")
	if !ok {
		t.Fatal("sweep lost in replay")
	}
	if got := sw.State(); got != SweepCanceled {
		t.Fatalf("sweep state %s, want %s", got, SweepCanceled)
	}
	wantChild := map[string]JobState{"job-000003": StateCanceled, "job-000004": StateFailed}
	for id, want := range wantChild {
		j, ok := m.Job(id)
		if !ok {
			t.Fatalf("sweep child %s lost in replay", id)
		}
		if s := j.Status(); s.State != want || s.Attempts > 1 {
			t.Fatalf("sweep child %s: %+v, want %s without a new attempt", id, s, want)
		}
	}
	if j, _ := m.Job("job-000004"); !strings.Contains(j.Status().Error, retiredMsg) {
		t.Fatalf("shards=4 child error %q does not name the retired engine", j.Status().Error)
	}
	if n := m.Registry().Snapshot().Counters["server.jobs.completed"]; n != 0 {
		t.Fatalf("%d jobs executed after replay, want 0", n)
	}

	// New submissions asking for shards are refused at the boundary.
	resp, b = postJob(t, srv.URL, `{"config":{"shards":2}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), retiredMsg) {
		t.Fatalf("POST /v1/jobs shards=2: %d %s", resp.StatusCode, b)
	}
	resp, b = postEstimate(t, srv.URL, `{"config":{"shards":2}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), retiredMsg) {
		t.Fatalf("POST /v1/estimate shards=2: %d %s", resp.StatusCode, b)
	}
}
