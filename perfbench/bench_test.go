package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// Tiny versions of the three workloads: two fixed cycles each, so a run
// takes well under a second and every count is fixed by the seed.
var (
	tinyStacked = buildScale{family: "stacked", nMain: 64, nHalf: 32, minCycles: 2}
	tinyGrid    = buildScale{family: "grid", nMain: 8 * 8, nHalf: 6 * 6, minCycles: 2}
	tinyServe   = serveScale{nMain: 64, nHalf: 32, warm: 2, setups: 1, minCycles: 2, replays: 2}
)

// deterministic are the metrics that must repeat exactly for a seed.
var deterministic = []string{
	"charged_rounds", "dfs.phases", "separator.find.calls",
	"guard.rounds", "guard.messages", "serve.cache.hit_ratio",
}

func runTiny(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	o := options{workload: name, seed: seed, seconds: 1e-3, trace: trace}
	var res *result
	var err error
	switch name {
	case "stacked-build":
		res, err = runBuild(o, tinyStacked)
	case "grid-build":
		res, err = runBuild(o, tinyGrid)
	default:
		res, err = runServe(o, tinyServe)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d checked operations wrong: %v", name, res.failed, res.attempted, res.failures)
	}
	return res
}

// TestSameSeedSameCounts runs every workload twice with the same seed,
// untraced and traced, and requires identical deterministic metrics. The
// traced runs also fail if the replayed build's parent array differs from
// BuildDFSTreeGuarded's, which happens when dfs.Build's loop changes shape.
func TestSameSeedSameCounts(t *testing.T) {
	for _, name := range []string{"stacked-build", "grid-build", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			got := map[string]float64{}
			for _, trace := range []bool{false, true} {
				a, b := runTiny(t, name, 7, trace), runTiny(t, name, 7, trace)
				for _, m := range deterministic {
					va, okA := a.metrics[m]
					vb, okB := b.metrics[m]
					if okA != okB || va.value != vb.value {
						t.Errorf("%s: two runs with seed 7 gave %v and %v", m, va.value, vb.value)
					}
					if okA {
						got[m] = va.value
					}
				}
			}
			for _, m := range deterministic {
				if _, ok := got[m]; !ok {
					t.Errorf("%s not reported", m)
				}
			}
			if name == "serve-mixed" && got["serve.cache.hit_ratio"] <= 0 {
				t.Errorf("serve.cache.hit_ratio = %v, want the resubmissions to hit", got["serve.cache.hit_ratio"])
			}
		})
	}
}

// TestReportShape checks the last output line: one JSON object with the
// four required keys and every end-to-end metric with its unit.
func TestReportShape(t *testing.T) {
	res := runTiny(t, "stacked-build", 3, false)
	var out bytes.Buffer
	o := options{workload: "stacked-build", seed: 3, seconds: 1e-3}
	if err := report(&out, o, stamp(o, res), res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want correct, attempted, failed, metrics", len(last))
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, d := range catalog {
		m, ok := metrics[d.name]
		if ok == d.perLayer {
			t.Errorf("%s: reported %v in the untraced run", d.name, ok)
			continue
		}
		if ok && (m.Unit != d.unit || m.Value == 0) {
			t.Errorf("%s = %v %s, want a nonzero value in %s", d.name, m.Value, m.Unit, d.unit)
		}
	}
}

// TestCorruptionsReachTheGuard checks that every corrupted variant passes
// the wire field checks and builds, so that only the guard can reject it.
func TestCorruptionsReachTheGuard(t *testing.T) {
	for _, family := range []string{"stacked", "grid"} {
		in, err := makeInstance(family, 100, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for c := corruption(0); c < numCorruptions; c++ {
			w, err := corruptWire(in, c, rng)
			if err != nil {
				t.Fatalf("%s %s: %v", family, c, err)
			}
			if err := w.Check(); err != nil {
				t.Errorf("%s %s: field check failed: %v", family, c, err)
			}
			cin, err := w.Build()
			if err != nil {
				t.Fatalf("%s %s: build: %v", family, c, err)
			}
			if cin.Emb.Validate() == nil {
				t.Errorf("%s %s: variant is a valid embedding", family, c)
			}
		}
	}
}
