package hier_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/hybrid"
	"repro/internal/nvm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// passThrough is a foreign hier.Target around the concrete LLC: the
// system cannot see the LLC behind it, so L2 victims take the byte path
// (ContentInto, then Target.Insert) instead of the lazy InsertFrom.
type passThrough struct{ hier.Target }

// TestInsertPathsAgree: a system on the concrete LLC (lazy insert, sizes
// from the apps' memo) and one on a pass-through target (bytes generated
// and sized on every L2 eviction) produce identical run statistics,
// registry snapshots and epoch samples.
func TestInsertPathsAgree(t *testing.T) {
	cases := map[string]func(*core.Config){
		"BH":          func(c *core.Config) { c.PolicyName = "BH" },
		"CP_SD":       func(c *core.Config) { c.PolicyName = "CP_SD" },
		"CA_HCROnly":  func(c *core.Config) { c.PolicyName = "CA"; c.AblationHCROnly = true },
		"Materialize": func(c *core.Config) { c.PolicyName = "CP_SD"; c.MaterializeData = true },
	}
	for name, set := range cases {
		t.Run(name, func(t *testing.T) {
			c := core.QuickConfig()
			c.LLCSets = 128
			c.EpochCycles = 100_000
			c.EnduranceMean = 3e4 // young faults, so fit checks bite
			set(&c)
			lazy, lazyLLC := buildInsertPathSystem(t, c, false)
			bytes, bytesLLC := buildInsertPathSystem(t, c, true)
			if lazy.LLC() != lazyLLC || bytes.LLC() != nil {
				t.Fatal("the concrete LLC is not recognised behind LLCTarget alone")
			}
			for w, cycles := range []uint64{150_000, 450_000} {
				a, b := lazy.Run(cycles), bytes.Run(cycles)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("window %d: run stats diverge:\n lazy  %+v\n bytes %+v", w, a, b)
				}
				if a.LLC.Inserts == 0 {
					t.Fatalf("window %d: no LLC inserts", w)
				}
				if a.LLC.DataPathErrors != 0 {
					t.Fatalf("window %d: %d data-path errors", w, a.LLC.DataPathErrors)
				}
			}
			if a, b := lazy.Metrics().Snapshot(), bytes.Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("registry snapshots diverge:\n lazy  %v\n bytes %v", a, b)
			}
			if a, b := lazy.EpochSamples(), bytes.EpochSamples(); len(a) == 0 || !reflect.DeepEqual(a, b) {
				t.Fatalf("epoch samples diverge (%d vs %d samples)", len(a), len(b))
			}
			if lazyLLC.Stats != bytesLLC.Stats {
				t.Fatalf("LLC stats diverge:\n lazy  %+v\n bytes %+v", lazyLLC.Stats, bytesLLC.Stats)
			}
		})
	}
}

// buildInsertPathSystem builds the system c describes, from the parts
// core.Config.Build uses, on hier.LLCTarget or on a passThrough around it.
func buildInsertPathSystem(t *testing.T, c core.Config, wrap bool) (*hier.System, *hybrid.LLC) {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	apps, err := workload.NewMix(c.MixID, c.Seed, c.Scale)
	if err != nil {
		t.Fatal(err)
	}
	pol, thr, sram, nvmWays, err := core.BuildPolicy(c)
	if err != nil {
		t.Fatal(err)
	}
	llc := hybrid.New(hybrid.Config{
		Sets:             c.LLCSets,
		SRAMWays:         sram,
		NVMWays:          nvmWays,
		Policy:           pol,
		Thresholds:       thr,
		Endurance:        nvm.EnduranceModel{Mean: c.EnduranceMean, CV: c.EnduranceCV},
		Sampler:          stats.NewRNG(c.Seed ^ 0xE7D5),
		HCROnly:          c.AblationHCROnly,
		MaterializeData:  c.MaterializeData,
		SetMapperAdvance: true,
	})
	progs := make([]hier.Program, len(apps))
	for i, a := range apps {
		progs[i] = a
	}
	hcfg := hier.Config{
		L1Sets: c.L1Sets, L1Ways: c.L1Ways,
		L2Sets: c.L2SizeKB * 1024 / (c.L2Ways * 64), L2Ways: c.L2Ways,
		EpochCycles: c.EpochCycles,
		IssueWidth:  4,
		Lat:         c.Latencies(),
		Banks:       c.LLCBanks,
	}
	target := hier.LLCTarget(llc)
	if wrap {
		target = passThrough{target}
	}
	return hier.NewWithTarget(hcfg, target, progs), llc
}
