package core

// Full-state differential checks on the simulation path: two builds
// that must be the same machine by construction are run side by side
// and compared on every registry counter and gauge (floats by bit
// pattern), the epoch sample series and the NVM effective capacity.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dueling"
	"repro/internal/metrics"
)

// diffCycles spans several 100k-cycle epochs, so epoch closes (winner
// selection, coloring advances) happen repeatedly inside the window.
const diffCycles = 800_000

// diffConfig is a small, fault-active configuration: low endurance makes
// frames fail during the window, so the comparison covers wear-out, not
// just pristine arrays.
func diffConfig(policy string, mix int, seed uint64, sets int) Config {
	c := QuickConfig()
	c.PolicyName = policy
	c.MixID = mix
	c.Seed = seed
	c.LLCSets = sets
	c.EpochCycles = 100_000
	c.EnduranceMean = 60_000
	c.EnduranceCV = 0.3
	return c
}

// simState is everything the differential checks compare.
type simState struct {
	snapshot metrics.Snapshot
	epochs   []metrics.Sample
	capacity float64
}

func runState(t *testing.T, cfg Config) simState {
	t.Helper()
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(diffCycles)
	if err := sys.LLC().CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after run: %v", err)
	}
	return simState{
		snapshot: sys.Metrics().Snapshot(),
		epochs:   sys.EpochSamples(),
		capacity: sys.LLC().EffectiveCapacityFraction(),
	}
}

func compareStates(t *testing.T, ref, got simState) {
	t.Helper()
	for name, want := range ref.snapshot.Counters {
		if have, ok := got.snapshot.Counters[name]; !ok || have != want {
			t.Errorf("counter %s = %d, want %d", name, have, want)
		}
	}
	for name, want := range ref.snapshot.Gauges {
		if have, ok := got.snapshot.Gauges[name]; !ok || math.Float64bits(have) != math.Float64bits(want) {
			t.Errorf("gauge %s = %v, want bit-identical %v", name, have, want)
		}
	}
	if len(got.snapshot.Counters) != len(ref.snapshot.Counters) || len(got.snapshot.Gauges) != len(ref.snapshot.Gauges) {
		t.Errorf("registry shape differs: %d/%d counters, %d/%d gauges",
			len(got.snapshot.Counters), len(ref.snapshot.Counters), len(got.snapshot.Gauges), len(ref.snapshot.Gauges))
	}
	if !reflect.DeepEqual(ref.epochs, got.epochs) {
		t.Errorf("epoch sample series diverged (%d vs %d samples)", len(got.epochs), len(ref.epochs))
	}
	if math.Float64bits(got.capacity) != math.Float64bits(ref.capacity) {
		t.Errorf("capacity %v, want bit-identical %v", got.capacity, ref.capacity)
	}
}

// TestTournamentSubsumesLegacyCPSD: a TOURNAMENT whose candidates are
// CA_RWR at the legacy CPth list must reproduce CP_SD bit for bit. The
// two builds share nothing above the dueling substrate: CP_SD goes
// through the top-level-policy path (nil resolver), the tournament
// through per-set resolution.
func TestTournamentSubsumesLegacyCPSD(t *testing.T) {
	ref := runState(t, diffConfig("CP_SD", 0, 1, 96))
	cfg := diffConfig("TOURNAMENT", 0, 1, 96)
	cfg.Tournament = &TournamentConfig{}
	for _, cpth := range dueling.DefaultCandidates {
		cfg.Tournament.Candidates = append(cfg.Tournament.Candidates, TournamentCandidate{Policy: "CA_RWR", CPth: cpth})
	}
	cfg.Th, cfg.Tw = 0, 0 // CP_SD selects on hits alone
	compareStates(t, ref, runState(t, cfg))
}

// TestIdentityColoringMatchesClassic pins the zero-cost end of the
// coloring design: xor with mask 0 is the identity mapping, and a run
// with it configured must be byte-for-byte the run with coloring off.
func TestIdentityColoringMatchesClassic(t *testing.T) {
	plain := runState(t, diffConfig("CP_SD", 0, 1, 128))
	cfg := diffConfig("CP_SD", 0, 1, 128)
	cfg.Coloring = &ColoringConfig{Scheme: ColoringXOR}
	compareStates(t, plain, runState(t, cfg))
}

// TestTournamentRunToRunDeterminism re-runs the default heterogeneous
// bracket (BRRIP's per-set insertion counters and PAR's phase detector
// in play) on a skewed mix; the two runs must be identical.
func TestTournamentRunToRunDeterminism(t *testing.T) {
	cfg := diffConfig("TOURNAMENT", 6, 42, 128)
	compareStates(t, runState(t, cfg), runState(t, cfg))
}
