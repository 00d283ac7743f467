package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestBindConfigCoversConfig is the drift test between core.Config and
// the CLI surface: every scalar field has exactly one flag, named by its
// JSON tag and documented, and the fields without a flag of their name
// are exactly the ones the commands own or -config carries.
func TestBindConfigCoversConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := core.DefaultConfig()
	BindConfig(fs, &cfg).BindRun()
	typ := reflect.TypeOf(cfg)
	var unbound []string
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		f := fs.Lookup(name)
		if name == "policy" || name == "mix_id" { // BindRun's -policy and -mix
			if name == "policy" && f == nil {
				t.Errorf("no -policy flag")
			}
			unbound = append(unbound, name)
			continue
		}
		if f == nil {
			unbound = append(unbound, name)
			continue
		}
		if name != "coloring" && configUsage[name] == "" {
			t.Errorf("flag -%s has no help text in configUsage", name)
		}
	}
	sort.Strings(unbound)
	if want := []string{"mix_id", "policy", "shards", "tournament"}; !reflect.DeepEqual(unbound, want) {
		t.Fatalf("fields without a flag = %v, want %v", unbound, want)
	}
	for name := range configUsage {
		if fs.Lookup(name) == nil {
			t.Errorf("configUsage documents %q, which is no flag", name)
		}
	}
}

// TestBindConfigPrecedence pins the one settings order: base preset,
// then -config, then flags set explicitly.
func TestBindConfigPrecedence(t *testing.T) {
	dir := t.TempDir()
	file := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	colored := file("colored.json", `{"coloring": {"scheme": "xor", "mask": 5}, "llc_sets": 256}`)
	mixed := file("mixed.json", `{"mix_id": 3, "policy": "BH", "cpth": 40, "endurance_cv": 0.3}`)
	for _, tc := range []struct {
		name  string
		quick bool
		args  []string
		check func(c core.Config) bool
	}{
		{"defaults", false, nil, func(c core.Config) bool {
			return reflect.DeepEqual(c, core.DefaultConfig())
		}},
		{"quick preset", true, nil, func(c core.Config) bool {
			return reflect.DeepEqual(c, core.QuickConfig())
		}},
		{"flag over preset", true, []string{"-llc_sets", "512", "-endurance_mean", "3e4"}, func(c core.Config) bool {
			return c.LLCSets == 512 && c.EnduranceMean == 3e4 && c.Scale == core.QuickConfig().Scale
		}},
		{"file over preset", true, []string{"-config", mixed}, func(c core.Config) bool {
			return c.MixID == 3 && c.PolicyName == "BH" && c.CPth == 40 && c.EnduranceCV == 0.3 && c.LLCSets == 256
		}},
		{"flag over file", false, []string{"-config", mixed, "-cpth", "30", "-mix", "2", "-policy", "CA"}, func(c core.Config) bool {
			return c.CPth == 30 && c.MixID == 1 && c.PolicyName == "CA" && c.EnduranceCV == 0.3
		}},
		{"unset flag keeps file", false, []string{"-config", mixed, "-th", "8"}, func(c core.Config) bool {
			return c.CPth == 40 && c.MixID == 3 && c.Th == 8
		}},
		{"coloring from file", false, []string{"-config", colored}, func(c core.Config) bool {
			return c.Coloring != nil && c.Coloring.Scheme == "xor" && c.Coloring.Mask == 5
		}},
		{"coloring off clears file", false, []string{"-config", colored, "-coloring", "off"}, func(c core.Config) bool {
			return c.Coloring == nil && c.LLCSets == 256
		}},
		{"coloring flag replaces file", false, []string{"-config", colored, "-coloring", "wear:interval=2,pairs=8"}, func(c core.Config) bool {
			return c.Coloring != nil && FormatColoring(c.Coloring) == "wear:interval=2,pairs=8"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			cfg := core.DefaultConfig()
			b := BindConfig(fs, &cfg).BindRun()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			if tc.quick {
				cfg = core.QuickConfig()
			}
			if err := b.Apply(); err != nil {
				t.Fatal(err)
			}
			if !tc.check(cfg) {
				t.Fatalf("resolved config %+v", cfg)
			}
		})
	}
}

func TestBindConfigRejects(t *testing.T) {
	dir := t.TempDir()
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(typo, []byte(`{"llc_set": 256}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-config", typo},                       // unknown field
		{"-config", filepath.Join(dir, "none")}, // missing file
		{"-coloring", "wear:pairs=bogus"},       // malformed spec
		{"-llc_sets", "0"},                      // invalid config
		{"-policy", "NOPE"},                     // unknown policy
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		cfg := core.DefaultConfig()
		b := BindConfig(fs, &cfg).BindRun()
		if err := fs.Parse(args); err != nil {
			t.Fatalf("%v: parse: %v", args, err)
		}
		if err := b.Apply(); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	for _, mix := range []string{"0", "13", "all", "1,2"} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg := core.DefaultConfig()
		BindConfig(fs, &cfg).BindRun()
		if err := fs.Parse([]string{"-mix", mix}); err == nil {
			t.Errorf("-mix %s accepted", mix)
		}
	}
}
