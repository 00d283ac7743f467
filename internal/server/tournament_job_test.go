package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

// tournamentBody submits a user-defined tournament bracket as a simd
// job: the "tournament" object rides inside the config exactly as
// cmd/tournament -config documents it.
const tournamentBody = `{
  "config": {
    "policy": "TOURNAMENT",
    "llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 200000,
    "tournament": {
      "candidates": [
        {"policy": "CA_RWR", "cpth": 44},
        {"policy": "SRRIP"},
        {"policy": "BRRIP"}
      ],
      "sampler_divisor": 16
    }
  },
  "warmup_cycles": 100000,
  "measure_cycles": 500000
}`

// TestTournamentBracketJob drives a user-defined bracket through the
// whole service: strict decode, validation, execution, and a completed
// report. This is the acceptance path for "brackets as simd jobs".
func TestTournamentBracketJob(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 4, CacheSize: 4})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	resp, body := postJob(t, srv.URL, tournamentBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	jr := waitCompleted(t, srv.URL, st.ID)
	if len(jr.Report) == 0 {
		t.Fatal("completed bracket job carries no report")
	}
	if !strings.Contains(string(jr.Report), "TOURNAMENT") {
		t.Fatalf("report does not mention the tournament policy:\n%s", jr.Report)
	}
}

// TestTournamentBracketJobStrictDecode pins the strictness and
// validation guarantees for bracket submissions.
func TestTournamentBracketJobStrictDecode(t *testing.T) {
	// Unknown fields inside the bracket object are rejected, same as
	// anywhere else in the document.
	bad := `{"config": {"policy": "TOURNAMENT", "tournament": {"candidates": [
	  {"policy": "CA"}, {"policy": "SRRIP"}], "bogus": 1}}}`
	if _, err := DecodeJobRequest([]byte(bad)); err == nil {
		t.Fatal("unknown bracket field accepted")
	}
	// Invalid brackets fail request validation before queueing.
	invalid := `{"config": {"policy": "TOURNAMENT", "tournament": {"candidates": [
	  {"policy": "CP_SD"}, {"policy": "SRRIP"}]}}}`
	if _, err := DecodeJobRequest([]byte(invalid)); err == nil {
		t.Fatal("ineligible bracket candidate accepted")
	}
	one := `{"config": {"policy": "TOURNAMENT", "tournament": {"candidates": [{"policy": "CA"}]}}}`
	if _, err := DecodeJobRequest([]byte(one)); err == nil {
		t.Fatal("1-candidate bracket accepted")
	}
	// A nil bracket is the default bracket — a valid submission.
	if _, err := DecodeJobRequest([]byte(`{"config": {"policy": "TOURNAMENT"}}`)); err != nil {
		t.Fatalf("default-bracket submission rejected: %v", err)
	}
}

// TestTournamentBracketCacheKey pins that the bracket is part of the
// result's content address: different brackets must never share a
// cached result, identical brackets must.
func TestTournamentBracketCacheKey(t *testing.T) {
	base, err := DecodeJobRequest([]byte(tournamentBody))
	if err != nil {
		t.Fatal(err)
	}
	same, err := DecodeJobRequest([]byte(tournamentBody))
	if err != nil {
		t.Fatal(err)
	}
	if base.CacheKey() != same.CacheKey() {
		t.Fatal("identical bracket submissions hash differently")
	}

	cpth := base
	tc := *base.Config.Tournament
	tc.Candidates = append([]core.TournamentCandidate(nil), tc.Candidates...)
	tc.Candidates[0].CPth = 58
	cpth.Config.Tournament = &tc
	if cpth.CacheKey() == base.CacheKey() {
		t.Fatal("changing a candidate CPth kept the cache key")
	}

	divisor := base
	td := *base.Config.Tournament
	td.SamplerDivisor = 32
	divisor.Config.Tournament = &td
	if divisor.CacheKey() == base.CacheKey() {
		t.Fatal("changing the sampler divisor kept the cache key")
	}

	nilBracket := base
	nilBracket.Config.Tournament = nil
	if nilBracket.CacheKey() == base.CacheKey() {
		t.Fatal("explicit and nil brackets share a cache key")
	}
}
