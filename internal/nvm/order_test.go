package nvm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stats"
)

// refFrame is the eager reference for a frame's byte-death bookkeeping:
// the ascending-limit order is a stable argsort of the limits, taken up
// front, and nothing is cached besides the wear level.
type refFrame struct {
	limits [FrameBytes]float64
	order  []int
	faulty [FrameBytes]bool
	live   int
	wear   float64
	gran   Granularity
	dead   bool
}

func newRefFrame(limits [FrameBytes]float64, gran Granularity) *refFrame {
	r := &refFrame{limits: limits, live: FrameBytes, gran: gran, order: make([]int, FrameBytes)}
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool { return r.limits[r.order[a]] < r.limits[r.order[b]] })
	return r
}

func (r *refFrame) nextLimit() float64 {
	for _, b := range r.order {
		if !r.faulty[b] {
			return r.limits[b]
		}
	}
	return math.Inf(1)
}

func (r *refFrame) addWear(delta float64) int {
	if r.dead {
		return 0
	}
	r.wear += delta
	died := 0
	for _, b := range r.order {
		if r.limits[b] <= r.wear && !r.faulty[b] {
			died++
			r.faulty[b] = true
			r.live--
		}
	}
	if died > 0 && (r.gran == FrameDisabling || r.live < MinECB) {
		r.dead = true
	}
	return died
}

func (r *refFrame) advanceTo(w float64) int {
	if w <= r.wear {
		return 0
	}
	return r.addWear(w - r.wear)
}

func (r *refFrame) injectFault(b int) {
	if r.dead || r.faulty[b] {
		return
	}
	r.faulty[b] = true
	r.live--
	if r.gran == FrameDisabling || r.live < MinECB {
		r.dead = true
	}
}

// TestLazyOrderMatchesSorted drives frames whose order is filled on first
// need through random wear, fast-forward, fault-injection and
// snapshot/restore scripts, and checks every observable against the eager
// reference after each step.
func TestLazyOrderMatchesSorted(t *testing.T) {
	model := EnduranceModel{Mean: 100, CV: 0.3}
	for _, gran := range []Granularity{ByteDisabling, FrameDisabling} {
		for seed := uint64(1); seed <= 300; seed++ {
			a := NewArray(1, 1, model, stats.NewRNG(seed), gran)
			f := a.Frames()[0]
			ref := newRefFrame(f.limits, gran)
			script := rand.New(rand.NewSource(int64(seed)))
			steps := 40
			restoreAt := script.Intn(steps)
			for step := 0; step < steps; step++ {
				if step == restoreAt {
					b, err := RestoreArray(a.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					a, f = b, b.Frames()[0]
				}
				var op string
				var died, refDied int
				switch script.Intn(4) {
				case 0:
					op = "AddWear"
					d := script.Float64() * model.Mean / 4
					died, refDied = f.AddWear(d), ref.addWear(d)
				case 1:
					op = "AdvanceTo(NextLimit)"
					died, refDied = f.AdvanceTo(f.NextLimit()), ref.advanceTo(ref.nextLimit())
				case 2:
					op = "InjectFault"
					b := script.Intn(FrameBytes)
					f.InjectFault(b)
					ref.injectFault(b)
				case 3:
					op = "RecordWrite"
					n := 1 + script.Intn(FrameBytes)
					died = f.RecordWrite(n)
					if !ref.dead && ref.live > 0 {
						refDied = ref.addWear(float64(n) / float64(ref.live))
					}
				}
				where := func() string { return fmt.Sprintf("%v seed %d step %d %s", gran, seed, step, op) }
				if died != refDied {
					t.Fatalf("%s: died %d, reference %d", where(), died, refDied)
				}
				if got, want := f.NextLimit(), ref.nextLimit(); got != want {
					t.Fatalf("%s: NextLimit %v, reference %v", where(), got, want)
				}
				if f.Dead() != ref.dead {
					t.Fatalf("%s: Dead %v, reference %v", where(), f.Dead(), ref.dead)
				}
				refLive := ref.live
				if ref.dead {
					refLive = 0
				}
				if f.LiveBytes() != refLive {
					t.Fatalf("%s: LiveBytes %d, reference %d", where(), f.LiveBytes(), refLive)
				}
				m := f.FaultMap()
				for b := 0; b < FrameBytes; b++ {
					if m.Get(b) != ref.faulty[b] {
						t.Fatalf("%s: fault map byte %d is %v, reference %v", where(), b, m.Get(b), ref.faulty[b])
					}
				}
			}
		}
	}
}
