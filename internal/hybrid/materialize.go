package hybrid

import (
	"bytes"
	"fmt"

	"repro/internal/bdi"
)

// Materialized-data mode: when Config.MaterializeData is set, every NVM
// insertion runs the full Fig-5 data path (compress -> ECB -> SECDED ->
// scatter) and stores the physical frame image; every NVM hit gathers,
// checks and decompresses it, verifying the result against the block's
// true contents. This validates, under live traffic, aging and rotating
// wear-leveling counters, that the performance simulator's size/wear
// accounting corresponds to a bit-exact hardware data path.
//
// The mode costs roughly an order of magnitude in simulation speed and is
// meant for validation runs and tests, not for the forecast sweeps.

// dataStore holds the side state of materialized mode. Contents and images
// are stored in flat per-slot arrays whose buffers are reused across fills,
// so a steady-state materialized insert allocates nothing; hasContent /
// hasImage carry the validity that nil-ing the slices used to.
type dataStore struct {
	path       *DataPath
	contents   [][]byte // per entry slot: true block contents (buffer reused)
	hasContent []bool
	images     []StoredBlock // per entry slot: NVM physical image
	hasImage   []bool
	// fetch receives the bytes InsertFrom pulls from its source; they are
	// copied into the slot's buffer before the insert returns.
	fetch [bdi.BlockSize]byte
}

// initMaterialize validates and installs the mode.
func (l *LLC) initMaterialize() {
	if !l.pol.Compressed() {
		panic("hybrid: MaterializeData requires a compressing policy")
	}
	if l.hcrOnly {
		panic("hybrid: MaterializeData is incompatible with the HCROnly ablation")
	}
	n := l.sets * l.ways()
	l.data = &dataStore{
		path:       NewDataPath(),
		contents:   make([][]byte, n),
		hasContent: make([]bool, n),
		images:     make([]StoredBlock, n),
		hasImage:   make([]bool, n),
	}
}

// Materialized reports whether the LLC runs the full data path.
func (l *LLC) Materialized() bool { return l.data != nil }

// slot returns the flat entry index.
func (l *LLC) slot(set, way int) int { return set*l.ways() + way }

// rememberContent records the true contents for a freshly filled slot; for
// NVM slots it also writes the physical image through the data path (which
// applies the frame wear itself).
func (l *LLC) rememberContent(set, way int, content []byte) {
	if l.data == nil {
		return
	}
	idx := l.slot(set, way)
	l.data.hasImage[idx] = false
	l.data.hasContent[idx] = false
	if content == nil {
		l.Stats.DataPathErrors++ // materialized insert must carry content
		return
	}
	buf := l.data.contents[idx]
	if cap(buf) < len(content) {
		buf = make([]byte, len(content))
	}
	buf = buf[:len(content)]
	copy(buf, content)
	l.data.contents[idx] = buf
	l.data.hasContent[idx] = true
	if l.partOf(way) != NVM {
		return
	}
	st, err := l.data.path.WriteBlock(content, l.frameOf(set, way), l.arr.Counter().Value())
	if err != nil {
		l.Stats.DataPathErrors++
		return
	}
	l.data.images[idx] = st
	l.data.hasImage[idx] = true
}

// contentAt returns the remembered contents of a slot (nil outside
// materialized mode).
func (l *LLC) contentAt(set, way int) []byte {
	if l.data == nil {
		return nil
	}
	idx := l.slot(set, way)
	if !l.data.hasContent[idx] {
		return nil
	}
	return l.data.contents[idx]
}

// clearMaterialized drops side state for a vacated slot.
func (l *LLC) clearMaterialized(set, way int) {
	if l.data == nil {
		return
	}
	idx := l.slot(set, way)
	l.data.hasImage[idx] = false
	l.data.hasContent[idx] = false
}

// verifyMaterialized runs the read data path for an NVM hit and compares
// the reconstructed block against the remembered true contents.
// Mismatches increment Stats.DataPathErrors; a correct implementation
// never produces any.
func (l *LLC) verifyMaterialized(set, way int) {
	if l.data == nil || l.partOf(way) != NVM {
		return
	}
	idx := l.slot(set, way)
	if !l.data.hasImage[idx] || !l.data.hasContent[idx] {
		l.Stats.DataPathErrors++
		return
	}
	got, _, err := l.data.path.ReadBlock(l.data.images[idx])
	if err != nil || !bytes.Equal(got, l.data.contents[idx]) {
		l.Stats.DataPathErrors++
	}
}

// VerifyAllResident runs the read data path over every NVM-resident block
// and returns an error for the first mismatch (test hook).
func (l *LLC) VerifyAllResident() error {
	if l.data == nil {
		return fmt.Errorf("hybrid: LLC not in materialized mode")
	}
	for set := 0; set < l.sets; set++ {
		for w := l.sramWays; w < l.ways(); w++ {
			e := l.entryAt(set, w)
			if !e.valid {
				continue
			}
			idx := l.slot(set, w)
			if !l.data.hasImage[idx] || !l.data.hasContent[idx] {
				return fmt.Errorf("hybrid: block %#x missing materialized state", e.block)
			}
			want := l.data.contents[idx]
			got, _, err := l.data.path.ReadBlock(l.data.images[idx])
			if err != nil {
				return fmt.Errorf("hybrid: block %#x read path: %v", e.block, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("hybrid: block %#x contents diverge", e.block)
			}
		}
	}
	return nil
}
