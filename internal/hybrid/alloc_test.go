package hybrid_test

// Alloc-regression pins for the two non-bdi hot paths named in the perf
// baseline: a steady-state LLC access (lookup, insert, victim selection,
// fit checks) and an NVM frame write through the full Fig-5 data path.
// The tests fail with the measured count so a regression is
// self-explaining. They run under -race in CI.

import (
	"encoding/binary"
	"testing"

	"repro/internal/bdi"
	"repro/internal/hybrid"
	"repro/internal/nvm"
	"repro/internal/policy"
	"repro/internal/stats"
)

// contentFor builds a deterministic compressible 64-byte block for address a.
func contentFor(a uint64) []byte {
	b := make([]byte, bdi.BlockSize)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], a<<32+uint64(i*3))
	}
	return b
}

// setSource is a hybrid.BlockSource over the alloc test's working set:
// block i*64 holds contents[i].
type setSource struct{ contents [][]byte }

func (s setSource) CompressedSize(block uint64) int { return bdi.SizeOf(s.contents[block/64]) }
func (s setSource) ContentInto(dst []byte, block uint64) []byte {
	return append(dst[:0], s.contents[block/64]...)
}

func TestSteadyStateLLCAccessZeroAllocs(t *testing.T) {
	// A conflicting working set larger than one set's capacity, so the
	// measured loop exercises hits, misses, fresh inserts with victim
	// selection, and in-place dirty updates.
	const n = 24
	blocks := make([]uint64, n)
	contents := make([][]byte, n)
	for i := range blocks {
		blocks[i] = uint64(i) * 64 // all map to set 0 (64 sets, stride 64)
		contents[i] = contentFor(blocks[i])
	}
	src := &setSource{contents: contents}
	// Both insert entry points: bytes in hand (Insert), and sized on
	// demand from a source (InsertFrom, the hierarchy's path).
	inserts := map[string]func(l *hybrid.LLC, i int, dirty bool){
		"Insert": func(l *hybrid.LLC, i int, dirty bool) {
			l.Insert(blocks[i], dirty, hybrid.BlockTag{}, contents[i])
		},
		"InsertFrom": func(l *hybrid.LLC, i int, dirty bool) {
			l.InsertFrom(blocks[i], dirty, hybrid.BlockTag{}, src)
		},
	}
	for name, insert := range inserts {
		llc := hybrid.New(hybrid.Config{
			Sets: 64, SRAMWays: 4, NVMWays: 12,
			Policy:    policy.CA{},
			Endurance: nvm.EnduranceModel{Mean: 1e12, CV: 0.2},
			Sampler:   stats.NewRNG(7),
		})
		for i := range blocks { // warm up: populate the set and the scratch
			insert(llc, i, false)
		}
		i := 0
		if allocs := testing.AllocsPerRun(400, func() {
			llc.GetS(blocks[i%n])
			insert(llc, i%n, i%3 == 0)
			llc.GetX(blocks[(i*7)%n])
			i++
		}); allocs != 0 {
			t.Errorf("%s: steady-state LLC access allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

func TestNVMFrameWriteZeroAllocs(t *testing.T) {
	f := nvm.NewFrame(nvm.EnduranceModel{Mean: 1e12, CV: 0.1}, stats.NewRNG(3), nvm.ByteDisabling)
	d := hybrid.NewDataPath()
	content := contentFor(42)
	if _, err := d.WriteBlock(content, f, 5); err != nil { // warm the codeword scratch
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(400, func() {
		if _, err := d.WriteBlock(content, f, 5); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("NVM frame write allocates %.1f times per run, want 0", allocs)
	}
	// The read path shares the scratch discipline.
	st, err := d.WriteBlock(content, f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadBlock(st); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(400, func() {
		if _, _, err := d.ReadBlock(st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("NVM frame read allocates %.1f times per run, want 0", allocs)
	}
}
