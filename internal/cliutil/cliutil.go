// Package cliutil holds helpers shared by the command-line tools: the
// config flag surface, mix-list parsing and the hardened worker-pool
// runner the sweep drivers fan out on.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// ParseMixes converts a CLI mix selector — "all" or a comma-separated list
// of 1-based mix numbers — into 0-based mix indices. "all" is the paper's
// ten Table V mixes; the skewed-traffic scenarios after them are chosen
// by number. Both bounds track the registered mix table, so new mixes are
// addressable without touching every cmd.
func ParseMixes(arg string) ([]int, error) {
	if arg == "all" {
		return core.AllMixes()[:paperMixes()], nil
	}
	n := len(core.AllMixes())
	var out []int
	for _, tok := range strings.Split(arg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 || v > n {
			return nil, fmt.Errorf("bad mix %q (want 1-%d or \"all\")", tok, n)
		}
		out = append(out, v-1)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty mix list")
	}
	return out, nil
}

// ParseMix converts a one-run mix selector, a single 1-based mix number,
// into its 0-based index through ParseMixes.
func ParseMix(arg string) (int, error) {
	mixes, err := ParseMixes(arg)
	if err != nil {
		return 0, err
	}
	if len(mixes) != 1 {
		return 0, fmt.Errorf("want one mix, got %d", len(mixes))
	}
	return mixes[0], nil
}

// paperMixes counts the Table V mixes: the registered mixes before the
// first one with a synthetic tenant.
func paperMixes() int {
	profiles := workload.Profiles()
	for i, mix := range workload.Mixes() {
		for _, app := range mix {
			if profiles[app].Synthetic {
				return i
			}
		}
	}
	return len(workload.Mixes())
}

// MixUsage and MixesUsage are the help strings of the -mix and -mixes
// flags, derived from the mix table.
var (
	mixRanges = fmt.Sprintf("1-%d: Table V 1-%d, skewed-traffic scenarios %d-%d",
		len(core.AllMixes()), paperMixes(), paperMixes()+1, len(core.AllMixes()))
	MixUsage   = fmt.Sprintf("mix number (%s)", mixRanges)
	MixesUsage = fmt.Sprintf(`comma-separated mix numbers (%s) or "all" (the %d Table V mixes)`, mixRanges, paperMixes())
)

// ParseColoring converts the conventional -coloring spec string into a
// coloring config: "scheme[:key=value,...]" with scheme one of xor /
// rotate / wear and keys mask, interval, step, pairs. "" and "off"
// disable coloring (nil). Examples: "xor:mask=5",
// "rotate:interval=4,step=1", "wear:interval=2,pairs=8".
func ParseColoring(spec string) (*core.ColoringConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	scheme, rest, _ := strings.Cut(spec, ":")
	cc := &core.ColoringConfig{Scheme: scheme}
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("bad coloring option %q (want key=value)", kv)
			}
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("bad coloring value %q for %q", val, key)
			}
			switch strings.TrimSpace(key) {
			case "mask":
				cc.Mask = n
			case "interval":
				cc.IntervalEpochs = n
			case "step":
				cc.Step = n
			case "pairs":
				cc.Pairs = n
			default:
				return nil, fmt.Errorf("unknown coloring option %q (valid: mask, interval, step, pairs)", key)
			}
		}
	}
	return cc, nil
}

// FormatColoring renders a coloring config back into the -coloring spec
// syntax ParseColoring reads, options in a fixed order and zero options
// omitted; nil renders as "off".
func FormatColoring(cc *core.ColoringConfig) string {
	if cc == nil {
		return "off"
	}
	spec, sep := cc.Scheme, ":"
	for _, o := range []struct {
		key string
		val int
	}{{"mask", cc.Mask}, {"interval", cc.IntervalEpochs}, {"step", cc.Step}, {"pairs", cc.Pairs}} {
		if o.val != 0 {
			spec += fmt.Sprintf("%s%s=%d", sep, o.key, o.val)
			sep = ","
		}
	}
	return spec
}

// ApplyColoring parses the conventional -coloring flag into the config
// and validates the result, so every cmd shares one spec syntax and one
// rejection path.
func ApplyColoring(cfg *core.Config, spec string) error {
	cc, err := ParseColoring(spec)
	if err != nil {
		return err
	}
	cfg.Coloring = cc
	return cfg.Validate()
}
