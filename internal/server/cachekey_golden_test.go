package server

import (
	"testing"

	"repro/internal/analytic"
	"repro/internal/core"
)

// goldenKeyConfigs are the configurations whose content addresses are
// pinned below: the default, the quick preset on BH, and the quick
// preset on CP_SD with xor coloring and an explicit tournament bracket
// (both optional pointer fields present in the canonical form).
func goldenKeyConfigs() map[string]core.Config {
	quickBH := core.QuickConfig()
	quickBH.PolicyName = "BH"

	quickCP := core.QuickConfig()
	quickCP.PolicyName = "CP_SD"
	quickCP.Coloring = &core.ColoringConfig{Scheme: "xor", Mask: 0xA5}
	quickCP.Tournament = &core.TournamentConfig{
		Candidates:     []core.TournamentCandidate{{Policy: "CA_RWR"}, {Policy: "SRRIP", CPth: 30}},
		SamplerDivisor: 16,
	}
	return map[string]core.Config{
		"default":        core.DefaultConfig(),
		"quick-BH":       quickBH,
		"quick-CP_SD-xt": quickCP,
	}
}

// TestCacheKeyGolden pins JobRequest.CacheKey and analytic.Spec.CacheKey
// as literal digests. Every completed job and every calibration in a
// -data directory is stored under these addresses, so a digest that
// moves orphans every existing cache entry: change one only together
// with a deliberate model-version bump. A config carrying shards 0 or 1
// (the sequential path; the CLIs historically wrote 1) must hash the
// same.
func TestCacheKeyGolden(t *testing.T) {
	wantJob := map[string]string{
		"default":        "99ed293c7b90efd5c73470aa1b72bceaa34f7068a261bd2572f3442a0730abc6",
		"quick-BH":       "af22faae34946a73d30d58501be9133a7e1c632d12d9f40248414393dadfafb6",
		"quick-CP_SD-xt": "80d3f069fd33f0eb7e01f8837df7ebbf0ea3cb530c8ffd1de3dff599e7a41efa",
	}
	wantEst := map[string]string{
		"default":        "est-467d2397ac9d69b741a1f32487e8a6e42aa82fb9eb56347bc079482f4315d9cc",
		"quick-BH":       "est-e62ac2229c8d3da799aa998d935b4c280b33afd40ffa3433c01344d88b230d06",
		"quick-CP_SD-xt": "est-071409c5278f0e3011a338b8452c28723ad7de009480584dd140337b57d6fb07",
	}
	for name, cfg := range goldenKeyConfigs() {
		for _, shards := range []int{0, 1} {
			cfg.Shards = shards
			req := DefaultJobRequest()
			req.Config = cfg
			if got := req.CacheKey(); got != wantJob[name] {
				t.Errorf("%s shards=%d: job key %s, want %s", name, shards, got, wantJob[name])
			}
			spec := analytic.DefaultSpec()
			spec.Config = cfg
			if got := spec.CacheKey(); got != wantEst[name] {
				t.Errorf("%s shards=%d: estimate key %s, want %s", name, shards, got, wantEst[name])
			}
		}
	}
}
