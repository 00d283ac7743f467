package nvm

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshotting. The paper's forecast procedure explicitly begins each
// simulation phase by "reading the NVM LLC state" — the fault map and wear
// of every frame (§V-A). This file serialises exactly that state so long
// forecasts can be checkpointed and resumed: per-byte endurance limits,
// accumulated wear, fault maps and the wear-leveling counters.

// FrameSnapshot is the persistent state of one frame.
type FrameSnapshot struct {
	Limits  [FrameBytes]float64
	Wear    float64
	FaultLo uint64
	FaultHi uint64
	Dead    bool
}

// ArraySnapshot is the persistent state of an NVM array.
type ArraySnapshot struct {
	Sets, Ways  int
	Granularity Granularity
	Model       EnduranceModel
	Counter     int
	Remap       int
	Frames      []FrameSnapshot
}

// Snapshot captures the array's full wear state.
func (a *Array) Snapshot() ArraySnapshot {
	s := ArraySnapshot{
		Sets: a.sets, Ways: a.ways,
		Granularity: a.gran, Model: a.model,
		Counter: a.counter.Value(), Remap: a.remap,
		Frames: make([]FrameSnapshot, len(a.frames)),
	}
	for i, f := range a.frames {
		s.Frames[i] = FrameSnapshot{
			Limits:  f.limits,
			Wear:    f.wear,
			FaultLo: f.faulty.lo,
			FaultHi: f.faulty.hi,
			Dead:    f.dead,
		}
	}
	return s
}

// RestoreArray reconstructs an array from a snapshot.
func RestoreArray(s ArraySnapshot) (*Array, error) {
	if s.Sets <= 0 || s.Ways < 0 || len(s.Frames) != s.Sets*s.Ways {
		return nil, fmt.Errorf("nvm: inconsistent snapshot geometry %dx%d with %d frames",
			s.Sets, s.Ways, len(s.Frames))
	}
	a := &Array{sets: s.Sets, ways: s.Ways, gran: s.Granularity, model: s.Model, remap: s.Remap}
	a.counter.Advance(s.Counter)
	a.frames = make([]*Frame, len(s.Frames))
	for i, fs := range s.Frames {
		a.frames[i] = restoreFrame(fs, s.Granularity)
	}
	return a, nil
}

// restoreFrame rebuilds a frame from persistent state, recomputing the
// derived fields: the smallest limit, the live count and, once a byte is
// faulty, the ascending-limit order.
func restoreFrame(s FrameSnapshot, gran Granularity) *Frame {
	f := &Frame{
		limits: s.Limits,
		faulty: FaultMap{lo: s.FaultLo, hi: s.FaultHi},
		wear:   s.Wear,
		gran:   gran,
	}
	f.setMinLimit()
	f.live = FrameBytes - f.faulty.Count()
	if f.live < FrameBytes {
		f.sortOrder()
	}
	f.dead = s.Dead || (gran == FrameDisabling && f.live < FrameBytes) || f.live < MinECB
	return f
}

// WriteSnapshot gob-encodes the array state to w.
func (a *Array) WriteSnapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(a.Snapshot())
}

// ReadSnapshot decodes an array state from r.
func ReadSnapshot(r io.Reader) (*Array, error) {
	var s ArraySnapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return RestoreArray(s)
}
