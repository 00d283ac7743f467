package cliutil

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"repro/internal/core"
)

// unboundFields are the scalar core.Config fields BindConfig gives no
// flag. The commands own the policy and mix selectors (-policy and -mix
// for one run, -policies and -mixes for a sweep), and the retired
// engine's shard count only survives so old documents still decode.
// The tournament bracket is not scalar: it enters through -config.
var unboundFields = map[string]bool{"policy": true, "mix_id": true, "shards": true}

// configUsage is the help text of each config flag, keyed by the field's
// JSON tag. A new scalar field needs one line here.
var configUsage = map[string]string{
	"seed":                   "workload and endurance sampling seed",
	"scale":                  "workload footprint scale",
	"llc_sets":               "LLC sets",
	"sram_ways":              "SRAM ways per LLC set",
	"nvm_ways":               "NVM ways per LLC set",
	"l1_sets":                "L1 sets",
	"l1_ways":                "L1 ways",
	"l2_size_kb":             "L2 size in KB",
	"l2_ways":                "L2 ways",
	"cpth":                   "fixed compression threshold (CA, CA_RWR and every non-dueling policy)",
	"th":                     "CP_SD_Th hit-sacrifice percentage",
	"tw":                     "CP_SD_Th write-reduction percentage",
	"endurance_mean":         "NVM endurance mean (writes per byte)",
	"endurance_cv":           "NVM endurance coefficient of variation",
	"epoch_cycles":           "set-dueling epoch length in cycles",
	"nvm_latency_factor":     "NVM data-array latency factor",
	"ablation_hcr_only":      "ablation: original BDI, discard LCR encodings",
	"ablation_no_invalidate": "ablation: keep the LLC copy on GetX hits",
	"ablation_no_migration":  "ablation: drop read-reused SRAM victims",
	"materialize_data":       "run the bit-exact NVM data path for every block (validation, ~10x slower)",
	"enable_prefetcher":      "enable the L2 stride prefetcher",
	"prefetch_degree":        "L2 stride prefetcher degree",
	"nvm_rrip":               "use fit-RRIP NVM replacement instead of fit-LRU",
	"llc_banks":              "LLC banks whose data-array occupancy is modelled (0 disables bank contention)",
	"check_every":            "run the invariant checker every N LLC accesses (0 disables)",
}

// ConfigFlags is the config surface BindConfig registers on a flag set.
type ConfigFlags struct {
	fs       *flag.FlagSet
	cfg      *core.Config
	vals     core.Config    // what the field flags parse into
	field    map[string]int // flag name -> core.Config field index
	path     string
	coloring string
	policy   string
	mix      int // 0-based
}

// BindConfig registers a command's config flags on fs: -config FILE (a
// core.Config JSON document, unknown fields rejected), -coloring SPEC,
// and one flag per scalar core.Config field, named by the field's JSON
// tag and defaulting to the field's value in *cfg, the command's base
// config. Nothing touches *cfg until Apply.
func BindConfig(fs *flag.FlagSet, cfg *core.Config) *ConfigFlags {
	b := &ConfigFlags{fs: fs, cfg: cfg, vals: *cfg, field: map[string]int{}}
	fs.StringVar(&b.path, "config", "", "load a core.Config JSON file over the base config (flags set explicitly still override)")
	fs.StringVar(&b.coloring, "coloring", "", `set coloring: "xor:mask=N", "rotate:interval=N,step=N", "wear:interval=N,pairs=N" or "off"`)
	vals := reflect.ValueOf(&b.vals).Elem()
	for i := 0; i < vals.NumField(); i++ {
		name, _, _ := strings.Cut(vals.Type().Field(i).Tag.Get("json"), ",")
		if unboundFields[name] {
			continue
		}
		usage := configUsage[name]
		switch p := vals.Field(i).Addr().Interface().(type) {
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *uint64:
			fs.Uint64Var(p, name, *p, usage)
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		default:
			continue // pointer blocks: -coloring, or -config for the bracket
		}
		b.field[name] = i
	}
	return b
}

// BindPolicy registers -policy, the insertion policy selector. Like the
// field flags it overrides -config only when set explicitly.
func (b *ConfigFlags) BindPolicy() *ConfigFlags {
	b.policy = b.cfg.PolicyName
	b.fs.StringVar(&b.policy, "policy", b.policy,
		fmt.Sprintf("insertion policy (%s)", strings.Join(core.SortedPolicyNames(), ", ")))
	return b
}

// BindRun registers the one-run selectors: -policy, and -mix as one
// 1-based mix number parsed by ParseMix.
func (b *ConfigFlags) BindRun() *ConfigFlags {
	b.mix = b.cfg.MixID
	b.fs.Func("mix", fmt.Sprintf("%s (default %d)", MixUsage, b.mix+1), func(s string) (err error) {
		b.mix, err = ParseMix(s)
		return err
	})
	return b.BindPolicy()
}

// Apply resolves the config in the one precedence order every command
// shares: the base preset already in *cfg, then the -config file, then
// each flag set explicitly on the command line. It validates the result.
func (b *ConfigFlags) Apply() error {
	if b.path != "" {
		data, err := os.ReadFile(b.path)
		if err != nil {
			return err
		}
		if err := core.UnmarshalStrict(data, b.cfg); err != nil {
			return fmt.Errorf("%s: %w", b.path, err)
		}
	}
	dst, src := reflect.ValueOf(b.cfg).Elem(), reflect.ValueOf(&b.vals).Elem()
	coloring := false
	b.fs.Visit(func(f *flag.Flag) {
		if i, ok := b.field[f.Name]; ok {
			dst.Field(i).Set(src.Field(i))
		}
		switch f.Name {
		case "policy":
			b.cfg.PolicyName = b.policy
		case "mix":
			b.cfg.MixID = b.mix
		case "coloring":
			coloring = true
		}
	})
	// Last, because a coloring validates against the final geometry;
	// "off" clears a coloring block loaded from -config.
	if coloring {
		return ApplyColoring(b.cfg, b.coloring)
	}
	return b.cfg.Validate()
}
