package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bdi"
)

func TestAllProfilesValidate(t *testing.T) {
	for name, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMixesResolve(t *testing.T) {
	// The paper's ten Table V mixes plus the two skewed-traffic scenarios.
	if len(Mixes()) != 12 {
		t.Fatalf("want 12 mixes (Table V + skew scenarios), got %d", len(Mixes()))
	}
	for m := 0; m < len(Mixes()); m++ {
		ps, err := MixProfiles(m)
		if err != nil {
			t.Fatalf("mix %d: %v", m, err)
		}
		if len(ps) != 4 {
			t.Fatalf("mix %d has %d apps, want 4", m, len(ps))
		}
	}
	if _, err := MixProfiles(12); err == nil {
		t.Fatal("out-of-range mix accepted")
	}
	if _, err := MixProfiles(-1); err == nil {
		t.Fatal("negative mix accepted")
	}
}

// TestFig2ClassDistribution verifies each generated app's block-class mix
// matches its profile and the real BDI compressor agrees with the class.
func TestFig2ClassDistribution(t *testing.T) {
	for _, name := range []string{"GemsFDTD06", "zeusmp06", "xz17", "milc06", "bwaves17", "omnetpp06"} {
		p := Profiles()[name]
		app, err := NewApp(p, 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		const n = 4000
		var hcr, lcr, inc int
		for b := uint64(0); b < n; b++ {
			c := bdi.Compress(app.Content(b))
			switch bdi.ClassOf(c.Enc) {
			case bdi.ClassHCR:
				hcr++
			case bdi.ClassLCR:
				lcr++
			default:
				inc++
			}
		}
		gotHCR := float64(hcr) / n
		gotLCR := float64(lcr) / n
		wantHCR := p.ZeroFrac + p.HCRFrac
		if math.Abs(gotHCR-wantHCR) > 0.04 {
			t.Errorf("%s: HCR fraction %.3f, want ~%.3f", name, gotHCR, wantHCR)
		}
		if math.Abs(gotLCR-p.LCRFrac) > 0.04 {
			t.Errorf("%s: LCR fraction %.3f, want ~%.3f", name, gotLCR, p.LCRFrac)
		}
	}
}

// TestFig2Average: across all profiles the paper reports ~78% compressible
// (49% HCR + 29% LCR). Our profile set should be in that neighbourhood.
func TestFig2Average(t *testing.T) {
	var hcr, lcr float64
	ps := Profiles()
	for _, p := range ps {
		hcr += p.ZeroFrac + p.HCRFrac
		lcr += p.LCRFrac
	}
	hcr /= float64(len(ps))
	lcr /= float64(len(ps))
	if hcr < 0.35 || hcr > 0.60 {
		t.Errorf("average HCR fraction %.3f outside [0.35,0.60] (paper: 0.49)", hcr)
	}
	if lcr < 0.15 || lcr > 0.40 {
		t.Errorf("average LCR fraction %.3f outside [0.15,0.40] (paper: 0.29)", lcr)
	}
	if tot := hcr + lcr; tot < 0.6 || tot > 0.9 {
		t.Errorf("average compressible fraction %.3f outside [0.6,0.9] (paper: 0.78)", tot)
	}
}

func TestGenContentClasses(t *testing.T) {
	for v := uint32(0); v < 3; v++ {
		for b := uint64(0); b < 200; b++ {
			z := bdi.Compress(GenContent(ClassZeros, 1, b, v))
			if z.Size() != 1 {
				t.Fatalf("zeros block compressed to %d", z.Size())
			}
			h := bdi.Compress(GenContent(ClassHCR, 1, b, v))
			if !h.Enc.IsHCR() {
				t.Fatalf("HCR block %d v%d compressed to %v (%dB)", b, v, h.Enc, h.Size())
			}
			l := bdi.Compress(GenContent(ClassLCR, 1, b, v))
			if !l.Enc.IsLCR() {
				t.Fatalf("LCR block %d v%d compressed to %v (%dB)", b, v, l.Enc, l.Size())
			}
			i := bdi.Compress(GenContent(ClassIncompressible, 1, b, v))
			if i.Size() != 64 {
				t.Fatalf("incompressible block %d v%d compressed to %d", b, v, i.Size())
			}
		}
	}
}

func TestContentDeterministic(t *testing.T) {
	a1, _ := NewApp(Profiles()["zeusmp06"], 100, 7)
	a2, _ := NewApp(Profiles()["zeusmp06"], 100, 7)
	for b := uint64(100); b < 150; b++ {
		c1, c2 := a1.Content(b), a2.Content(b)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatal("content not deterministic")
			}
		}
	}
}

func TestVersionChangesContentNotClass(t *testing.T) {
	app, _ := NewApp(Profiles()["omnetpp06"], 0, 9)
	changed := 0
	for b := uint64(0); b < 100; b++ {
		before := app.Content(b)
		class := bdi.ClassOf(bdi.Compress(before).Enc)
		app.BumpVersion(b)
		after := app.Content(b)
		if bdi.ClassOf(bdi.Compress(after).Enc) != class {
			t.Fatalf("block %d changed class on write", b)
		}
		for i := range before {
			if before[i] != after[i] {
				changed++
				break
			}
		}
	}
	if changed < 50 {
		t.Errorf("only %d/100 blocks changed content on version bump", changed)
	}
}

func TestAccessStreamProperties(t *testing.T) {
	p := Profiles()["zeusmp06"]
	app, err := NewApp(p, AppSpacing, 11)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var writes int
	var gapSum int
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		acc := app.Next()
		if !app.Owns(acc.Block) {
			t.Fatalf("access outside footprint: %#x", acc.Block)
		}
		if acc.Write {
			writes++
		}
		if acc.Gap <= 0 {
			t.Fatal("non-positive gap")
		}
		gapSum += acc.Gap
		seen[acc.Block] = true
	}
	// Loop component is read-only, so write fraction must be well below
	// the raw component write fractions.
	wf := float64(writes) / n
	if wf <= 0 || wf > 0.5 {
		t.Errorf("write fraction %.3f implausible", wf)
	}
	gapMean := float64(gapSum) / n
	if math.Abs(gapMean-float64(p.GapMean))/float64(p.GapMean) > 0.2 {
		t.Errorf("gap mean %.1f, want ~%d", gapMean, p.GapMean)
	}
	// Touches a large share of the loop set plus more.
	if len(seen) < p.LoopBlocks {
		t.Errorf("touched only %d distinct blocks", len(seen))
	}
}

func TestLoopBlocksAreReadOnly(t *testing.T) {
	p := Profiles()["libquantum06"]
	app, _ := NewApp(p, 0, 3)
	for i := 0; i < 100000; i++ {
		acc := app.Next()
		local := int(acc.Block - app.Base())
		if acc.Write && local < p.LoopBlocks {
			// Writes to the loop region can only come from the random
			// component; they must be rare.
			continue
		}
	}
	// Statistical check: count writes in loop region.
	writes, total := 0, 0
	for i := 0; i < 100000; i++ {
		acc := app.Next()
		if int(acc.Block-app.Base()) < p.LoopBlocks {
			total++
			if acc.Write {
				writes++
			}
		}
	}
	if total == 0 {
		t.Fatal("no loop-region accesses")
	}
	if frac := float64(writes) / float64(total); frac > 0.1 {
		t.Errorf("loop region write fraction %.3f too high", frac)
	}
}

func TestScale(t *testing.T) {
	p := Profiles()["mcf17"]
	s := p.Scale(0.5)
	if s.FootprintBlocks != p.FootprintBlocks/2 {
		t.Errorf("footprint %d, want %d", s.FootprintBlocks, p.FootprintBlocks/2)
	}
	tiny := p.Scale(0.000001)
	if tiny.FootprintBlocks < 16 {
		t.Error("scale must clamp to a usable minimum")
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled profile invalid: %v", err)
	}
}

func TestNewMix(t *testing.T) {
	apps, err := NewMix(0, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 4 {
		t.Fatalf("%d apps", len(apps))
	}
	// Address spaces must be disjoint.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if apps[i].Owns(apps[j].Base()) || apps[j].Owns(apps[i].Base()) {
				t.Fatal("overlapping address spaces")
			}
		}
	}
}

func TestNewMixScale(t *testing.T) {
	full, _ := NewMix(0, 1, 1.0)
	half, _ := NewMix(0, 1, 0.5)
	if half[0].Profile().FootprintBlocks >= full[0].Profile().FootprintBlocks {
		t.Error("scale did not shrink footprints")
	}
}

func TestOwnershipPanics(t *testing.T) {
	app, _ := NewApp(Profiles()["xz17"], AppSpacing, 1)
	for _, fn := range []func(){
		func() { app.Content(0) },
		func() { app.BumpVersion(0) },
		func() { app.ClassOf(0) },
	} {
		func() {
			defer func() { recover() }()
			fn()
			t.Error("foreign block access did not panic")
		}()
	}
}

func TestValidationErrors(t *testing.T) {
	base := Profiles()["zeusmp06"]
	bad1 := base
	bad1.LoopFrac = 0.9 // fractions no longer sum to 1
	bad2 := base
	bad2.LoopBlocks = bad2.FootprintBlocks + 1
	bad3 := base
	bad3.GapMean = 0
	bad4 := base
	bad4.ZeroFrac, bad4.HCRFrac, bad4.LCRFrac = 0.5, 0.5, 0.5
	for i, p := range []Profile{bad1, bad2, bad3, bad4} {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

// Property: every access from any mix app stays within its address space,
// and content generation round-trips through BDI.
func TestAppProperty(t *testing.T) {
	apps, err := NewMix(4, 99, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	f := func(step uint8) bool {
		app := apps[int(step)%len(apps)]
		acc := app.Next()
		if !app.Owns(acc.Block) {
			return false
		}
		content := app.Content(acc.Block)
		c := bdi.Compress(content)
		dec, err := bdi.Decompress(c)
		if err != nil {
			return false
		}
		for i := range content {
			if dec[i] != content[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNext(b *testing.B) {
	app, _ := NewApp(Profiles()["mcf17"], 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app.Next()
	}
}

func BenchmarkContent(b *testing.B) {
	app, _ := NewApp(Profiles()["zeusmp06"], 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		app.Content(uint64(i) % 1000)
	}
}

func TestPhasedProfilesValidate(t *testing.T) {
	phased := 0
	for name, p := range Profiles() {
		if len(p.Phases) > 0 {
			phased++
			if p.PhaseLen <= 0 {
				t.Errorf("%s: phases without PhaseLen", name)
			}
		}
	}
	if phased < 3 {
		t.Errorf("only %d phased profiles; want several for set-dueling adaptivity", phased)
	}
}

func TestPhaseRotation(t *testing.T) {
	p := Profiles()["bzip206"]
	app, err := NewApp(p, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 3*p.PhaseLen*len(app.mixes); i++ {
		seen[app.CurrentPhase()] = true
		app.Next()
	}
	for k := 0; k <= len(p.Phases); k++ {
		if !seen[k] {
			t.Errorf("phase %d never active", k)
		}
	}
}

func TestPhaseChangesWriteBehavior(t *testing.T) {
	p := Profiles()["bzip206"]
	app, _ := NewApp(p, 0, 5)
	writeFracByPhase := map[int][2]int{}
	for i := 0; i < 4*p.PhaseLen*len(app.mixes); i++ {
		ph := app.CurrentPhase()
		acc := app.Next()
		c := writeFracByPhase[ph]
		c[1]++
		if acc.Write {
			c[0]++
		}
		writeFracByPhase[ph] = c
	}
	// Phase 1 (decompression-like) writes less than phase 2 (compression).
	f1 := float64(writeFracByPhase[1][0]) / float64(writeFracByPhase[1][1])
	f2 := float64(writeFracByPhase[2][0]) / float64(writeFracByPhase[2][1])
	if f1 >= f2 {
		t.Errorf("phase write fractions not differentiated: %.3f vs %.3f", f1, f2)
	}
}

func TestBadPhaseValidation(t *testing.T) {
	p := Profiles()["zeusmp06"]
	p.Phases = []PatternMix{{LoopFrac: 0.5}} // sums to 0.5
	p.PhaseLen = 100
	if err := p.Validate(); err == nil {
		t.Error("invalid phase mixture accepted")
	}
	p2 := Profiles()["zeusmp06"]
	p2.Phases = []PatternMix{p2.BaseMix()}
	p2.PhaseLen = 0
	if err := p2.Validate(); err == nil {
		t.Error("phases without PhaseLen accepted")
	}
}

// TestCompressedSizeMemoMatchesContent is the size memo's differential:
// for every profile and every content class, across several stores to
// each block, App.CompressedSize returns bdi.SizeOf(App.Content) whether
// it computes the size or reads the memo. A Zeros block sizes to 1,
// which the memo must keep apart from its "unknown" 0.
func TestCompressedSizeMemoMatchesContent(t *testing.T) {
	const perClass, versions = 8, 4
	covered := map[Class]bool{}
	for name, p := range Profiles() {
		app, err := NewApp(p, 1<<32, 0x5EED)
		if err != nil {
			t.Fatal(err)
		}
		var blocks []uint64
		picked := map[Class]int{}
		for local := 0; local < p.FootprintBlocks; local++ {
			b := app.Base() + uint64(local)
			if c := app.ClassOf(b); picked[c] < perClass {
				picked[c]++
				covered[c] = true
				blocks = append(blocks, b)
			}
		}
		for v := 0; v < versions; v++ {
			for _, b := range blocks {
				want := bdi.SizeOf(app.Content(b))
				for i := 0; i < 2; i++ { // computed, then memoised
					if got := app.CompressedSize(b); got != want {
						t.Fatalf("%s block %#x (%v) version %d call %d: CompressedSize %d, SizeOf(Content) %d",
							name, b, app.ClassOf(b), v, i, got, want)
					}
				}
				if app.ClassOf(b) == ClassZeros && (want != 1 || app.sizes[b-app.Base()] != 1) {
					t.Fatalf("%s zeros block %#x: size %d, memo %d, want 1 and 1",
						name, b, want, app.sizes[b-app.Base()])
				}
				app.BumpVersion(b)
				if m := app.sizes[b-app.Base()]; m != 0 {
					t.Fatalf("%s block %#x: BumpVersion left memo %d", name, b, m)
				}
			}
		}
	}
	for _, c := range []Class{ClassZeros, ClassHCR, ClassLCR, ClassIncompressible} {
		if !covered[c] {
			t.Errorf("no profile has a block of class %v", c)
		}
	}
}
