package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRejectsUnknownSuiteAndRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-suite", "nosuch"},
		{"-suite", "chaos,nosuch"},
		{"-cert"},
		{"-serve", "-n", "256"},
		{},
	} {
		err := run(args)
		if err == nil {
			t.Fatalf("run(%q) succeeded", args)
		}
		for _, s := range suites {
			if !strings.Contains(err.Error(), s.name) {
				t.Errorf("run(%q) error %q does not name suite %q", args, err, s.name)
			}
		}
	}
}

// TestEverySuiteFillsEnvelope runs each suite once on its first family at
// its smallest default size, one benchmark iteration per row, and checks
// the header and every row's envelope.
func TestEverySuiteFillsEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite")
	}
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := benchtime.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = benchtime.Value.Set(old) }) // old was parsed from this flag

	for _, s := range suites {
		t.Run(s.name, func(t *testing.T) {
			family := strings.Split(s.families, ",")[0]
			size := strings.Split(s.sizes, ",")[0]
			out := filepath.Join(t.TempDir(), "bench.json")
			if err := run([]string{"-suite", s.name, "-families", family, "-sizes", size, "-o", out}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Schema     string   `json:"schema"`
				GOMAXPROCS int      `json:"gomaxprocs"`
				Suites     []string `json:"suites"`
				Entries    []Row    `json:"entries"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			if file.Schema != "planardfs/bench/v2" || file.GOMAXPROCS < 1 ||
				len(file.Suites) != 1 || file.Suites[0] != s.name {
				t.Fatalf("header = %+v", file)
			}
			if len(file.Entries) == 0 {
				t.Fatal("no rows")
			}
			for _, r := range file.Entries {
				if r.Suite != s.name || r.Family == "" || r.N <= 0 || r.M <= 0 ||
					r.WallNs <= 0 || r.AllocBytes <= 0 || r.Allocs <= 0 {
					t.Errorf("envelope not filled: %+v", r)
				}
			}
		})
	}
}
