package nvm

// Allocation pins for NVM array construction, which sits on the blocking
// path of every simulation build: one heap object per frame, plus the
// Array and its frame-pointer slice, and no per-frame scratch (the
// ascending-limit order is sorted in place, and only on first need).

import (
	"testing"

	"repro/internal/stats"
)

// The DefaultConfig LLC geometry: 1024 sets of 12 NVM ways.
const benchSets, benchWays = 1024, 12

func TestNewFrameAllocatesOnce(t *testing.T) {
	r := stats.NewRNG(1)
	var f *Frame
	if allocs := testing.AllocsPerRun(100, func() {
		f = NewFrame(testModel, r, ByteDisabling)
	}); allocs != 1 {
		t.Errorf("NewFrame allocates %.1f times, want 1 (the frame)", allocs)
	}
	if f.ordered {
		t.Error("a pristine frame sorted its byte order at build")
	}
}

func TestNewArrayAllocs(t *testing.T) {
	const sets, ways = 16, 5
	r := stats.NewRNG(1)
	if allocs := testing.AllocsPerRun(20, func() {
		NewArray(sets, ways, testModel, r, ByteDisabling)
	}); allocs != sets*ways+2 {
		t.Errorf("NewArray(%d, %d) allocates %.1f times, want %d (frames, slice, array)",
			sets, ways, allocs, sets*ways+2)
	}
}

func TestRestoreArrayAllocs(t *testing.T) {
	const sets, ways = 16, 5
	a := NewArray(sets, ways, testModel, stats.NewRNG(1), ByteDisabling)
	for i, f := range a.Frames() { // half the frames carry faults
		if i%2 == 0 {
			f.AdvanceTo(f.NextLimit())
		}
	}
	s := a.Snapshot()
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := RestoreArray(s); err != nil {
			t.Fatal(err)
		}
	}); allocs != sets*ways+2 {
		t.Errorf("RestoreArray(%d x %d) allocates %.1f times, want %d (frames, slice, array)",
			sets, ways, allocs, sets*ways+2)
	}
}

// benchArray keeps BenchmarkNewArray's result live.
var benchArray *Array

// BenchmarkNewArray builds a DefaultConfig-sized NVM array at the paper's
// endurance model; run with -benchmem.
func BenchmarkNewArray(b *testing.B) {
	model := EnduranceModel{Mean: 1e10, CV: 0.2}
	r := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchArray = NewArray(benchSets, benchWays, model, r, ByteDisabling)
	}
}
