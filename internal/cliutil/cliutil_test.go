package cliutil

import "testing"

func TestParseMixesAll(t *testing.T) {
	mixes, err := ParseMixes("all")
	if err != nil || len(mixes) != 10 || mixes[0] != 0 || mixes[9] != 9 {
		t.Fatalf("mixes=%v err=%v", mixes, err)
	}
}

func TestParseMixesList(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want []int
	}{
		{"1, 4,10", []int{0, 3, 9}},
		{"11,12", []int{10, 11}}, // the skew scenarios, chosen by number
	} {
		mixes, err := ParseMixes(tc.arg)
		if err != nil {
			t.Fatal(err)
		}
		if len(mixes) != len(tc.want) {
			t.Fatalf("%q: mixes=%v, want %v", tc.arg, mixes, tc.want)
		}
		for i, v := range tc.want {
			if mixes[i] != v {
				t.Fatalf("%q: mixes=%v, want %v", tc.arg, mixes, tc.want)
			}
		}
	}
}

func TestParseMixesErrors(t *testing.T) {
	for _, bad := range []string{"0", "13", "x", "", "1,,2"} {
		if _, err := ParseMixes(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestFormatColoringRoundTrip(t *testing.T) {
	for _, spec := range []string{"off", "xor:mask=5", "rotate:interval=4,step=1", "wear:interval=2,pairs=32", "wear"} {
		cc, err := ParseColoring(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatColoring(cc); got != spec {
			t.Errorf("FormatColoring(ParseColoring(%q)) = %q", spec, got)
		}
	}
}
