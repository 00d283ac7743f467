package dueling

import (
	"reflect"
	"testing"
)

// Differential proof that the N-way tournament subsumes the legacy CPth
// dueling path: a 2-candidate tournament whose candidates carry the same
// CPth values must be bit-exact with NewWithCandidates on the same event
// stream — same per-set thresholds after every epoch, same winner
// history.

// lcg is a tiny deterministic generator so the vote stream is fixed.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 33
}

func TestTwoCandidateTournamentMatchesLegacySequential(t *testing.T) {
	const sets = 128
	for _, params := range []struct{ th, tw float64 }{{0, 0}, {4, 5}} {
		legacy := NewWithCandidates(sets, []int{44, 58}, params.th, params.tw)
		tourn := NewTournament(sets, []Candidate{
			{Name: "CA_RWR@44", CPth: 44, Payload: 0},
			{Name: "CA_RWR@58", CPth: 58, Payload: 1},
		}, 0, params.th, params.tw)

		rng := lcg(9)
		for epoch := 0; epoch < 20; epoch++ {
			for i := 0; i < 4000; i++ {
				set := int(rng.next() % sets)
				switch rng.next() % 3 {
				case 0:
					legacy.RecordHit(set)
					tourn.RecordHit(set)
				default:
					n := int(rng.next() % 80)
					legacy.RecordNVMBytes(set, n)
					tourn.RecordNVMBytes(set, n)
				}
			}
			legacy.EndEpoch()
			tourn.EndEpoch()
			for s := 0; s < sets; s++ {
				if legacy.CPthFor(s) != tourn.CPthFor(s) {
					t.Fatalf("th=%v: epoch %d set %d: legacy CPth %d, tournament %d",
						params.th, epoch, s, legacy.CPthFor(s), tourn.CPthFor(s))
				}
			}
			if legacy.WinnerIndex() != tourn.WinnerIndex() {
				t.Fatalf("th=%v: epoch %d: winner index %d vs %d",
					params.th, epoch, legacy.WinnerIndex(), tourn.WinnerIndex())
			}
		}
		if !reflect.DeepEqual(legacy.History, tourn.History) {
			t.Fatalf("th=%v: history diverged:\nlegacy %v\ntourn  %v", params.th, legacy.History, tourn.History)
		}
	}
}

// TestTwoCandidateTournamentMatchesLegacySharded feeds the tournament
// each epoch's events regrouped into contiguous set ranges (shards, in
// ascending order) while the legacy controller sees them interleaved.
// A decision depends only on the epoch's per-candidate sums, so the
// reordering must be invisible: same per-set thresholds after every
// epoch, same winner history.
func TestTwoCandidateTournamentMatchesLegacySharded(t *testing.T) {
	const sets = 128
	type event struct{ set, bytes int } // bytes < 0 marks a hit
	for _, shards := range []int{1, 2, 3, 8} {
		tourn := NewTournament(sets, []Candidate{
			{Name: "CA_RWR@44", CPth: 44, Payload: 0},
			{Name: "CA_RWR@58", CPth: 58, Payload: 1},
		}, 0, 4, 5)
		ref := NewWithCandidates(sets, []int{44, 58}, 4, 5)
		shardOf := func(set int) int { return set * shards / sets }

		rng := lcg(9)
		for epoch := 0; epoch < 12; epoch++ {
			byShard := make([][]event, shards)
			for i := 0; i < 4000; i++ {
				set := int(rng.next() % sets)
				ev := event{set: set, bytes: -1}
				if rng.next()%3 != 0 {
					ev.bytes = int(rng.next() % 80)
				}
				if ev.bytes < 0 {
					ref.RecordHit(set)
				} else {
					ref.RecordNVMBytes(set, ev.bytes)
				}
				byShard[shardOf(set)] = append(byShard[shardOf(set)], ev)
			}
			for _, evs := range byShard {
				for _, ev := range evs {
					if ev.bytes < 0 {
						tourn.RecordHit(ev.set)
					} else {
						tourn.RecordNVMBytes(ev.set, ev.bytes)
					}
				}
			}
			ref.EndEpoch()
			tourn.EndEpoch()
			for s := 0; s < sets; s++ {
				if got, want := tourn.CPthFor(s), ref.CPthFor(s); got != want {
					t.Fatalf("shards=%d epoch %d set %d: CPth %d, want %d", shards, epoch, s, got, want)
				}
			}
		}
		if !reflect.DeepEqual(tourn.History, ref.History) {
			t.Fatalf("shards=%d: history diverged:\nref   %v\ntourn %v", shards, ref.History, tourn.History)
		}
	}
}
