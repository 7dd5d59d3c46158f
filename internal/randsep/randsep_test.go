package randsep

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"planardfs/internal/cert"
	"planardfs/internal/gen"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

func cfgOf(t *testing.T, in *gen.Instance) *weights.Config {
	t.Helper()
	fs := in.Emb.TraceFaces()
	root := fs.FaceVertices(in.OuterFace())[0]
	tr, err := spanning.BFSTree(in.G, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestFindValidatesRate(t *testing.T) {
	in, err := gen.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgOf(t, in)
	if res, err := Find(cfg, -0.5, 0.02, 1); err == nil || res != nil {
		t.Fatalf("negative rate accepted: %v, %v", res, err)
	}
	if res, err := Find(cfg, 1.5, 0.02, 1); err == nil || res != nil {
		t.Fatalf("rate > 1 accepted: %v, %v", res, err)
	}
	// A zero rate selects the default 0.25 instead of failing.
	res, err := Find(cfg, 0, 0.02, 1)
	if err != nil && !errors.Is(err, sepengine.ErrNoSeparator) {
		t.Fatalf("zero rate: %v", err)
	}
	if want := sampleCount(cfg.G.N(), 0.25, 1); res == nil || res.Samples != want {
		t.Fatalf("zero rate drew %+v, want %d samples at the default rate", res, want)
	}
}

// sampleCount recounts the vertices Find samples at rate from seed.
func sampleCount(n int, rate float64, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	k := 0
	for v := 0; v < n; v++ {
		if rng.Float64() < rate {
			k++
		}
	}
	return k
}

// With a full sample the estimator is exact: every face's estimate equals
// its extent, and a face whose extent lies in the band is balanced. The
// tiny margin keeps the band effectively [n/3, 2n/3] (a zero margin
// selects the default). The only failure allowed is a band miss; an
// unbalanced in-band face would be an estimator bug.
func TestFullSampleIsExact(t *testing.T) {
	okCnt, tried := 0, 0
	for seed := int64(1); seed <= 10; seed++ {
		in, err := gen.StackedTriangulation(60, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cfgOf(t, in)
		res, err := Find(cfg, 1.0, 1e-12, seed)
		tried++
		if err != nil && (!errors.Is(err, sepengine.ErrNoSeparator) ||
			!strings.Contains(err.Error(), "no face estimate within the safety band")) {
			t.Fatalf("seed %d: full sample failed other than by a band miss: %v", seed, err)
		}
		if res.EstimateErr != 0 {
			t.Fatalf("seed %d: full sample had estimation error %d", seed, res.EstimateErr)
		}
		if err != nil {
			continue
		}
		n := cfg.G.N()
		if maxC := separator.VerifyBalance(cfg.G, res.Sep.Path); 3*maxC > 2*n {
			t.Fatalf("full-sample separator unbalanced: %d of %d", maxC, n)
		}
		okCnt++
	}
	if okCnt == 0 {
		t.Fatalf("no instance had a direct in-band face (%d tried)", tried)
	}
}

// Small samples must fail (no candidate) noticeably more often than large
// samples — the quantitative story of E10.
func TestFailureRateDropsWithSamples(t *testing.T) {
	fail := func(rate float64) int {
		fails := 0
		for seed := int64(1); seed <= 30; seed++ {
			in, err := gen.StackedTriangulation(80, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfgOf(t, in)
			if _, err := Find(cfg, rate, 0.05, seed*77); err != nil {
				fails++
			}
		}
		return fails
	}
	small, large := fail(0.05), fail(0.9)
	if small < large {
		t.Fatalf("failure did not drop with sample size: %d (5%%) vs %d (90%%)", small, large)
	}
	t.Logf("failures out of 30: rate 0.05 -> %d, rate 0.9 -> %d", small, large)
}

// TestFindOverFamilies runs the baseline at its default rate and margin
// over wheels, grids, cylinders, stacked triangulations and polygons for
// every n in [6, 64], plus n=1000 outside -short mode: every success must
// be cert-valid and balanced (at n=1000 also accepted by the distributed
// separator PLS), every failure must wrap sepengine.ErrNoSeparator and
// carry the sample count, and every family must see at least one success.
func TestFindOverFamilies(t *testing.T) {
	type input struct {
		n    int
		seed int64
	}
	var inputs []input
	for n := 6; n <= 64; n++ {
		inputs = append(inputs, input{n, int64(7*n + 1)})
	}
	if !testing.Short() {
		inputs = append(inputs, input{1000, 9001})
	}
	for _, family := range []string{"wheel", "grid", "cylinderish", "stacked", "polygon"} {
		succeeded := 0
		for _, c := range inputs {
			in, err := gen.ByName(family, c.n, int64(c.n))
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfgOf(t, in)
			label := fmt.Sprintf("%s/n=%d", family, c.n)
			res, err := Find(cfg, 0, 0, c.seed)
			if want := sampleCount(cfg.G.N(), 0.25, c.seed); res == nil || res.Samples != want {
				t.Fatalf("%s: result %+v (err %v), want %d samples", label, res, err, want)
			}
			if err != nil {
				if !errors.Is(err, sepengine.ErrNoSeparator) {
					t.Fatalf("%s: unexpected error: %v", label, err)
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("samples=%d", res.Samples)) {
					t.Fatalf("%s: error %q does not report the sample count", label, err)
				}
				if res.Sep != nil {
					t.Fatalf("%s: failure returned a separator", label)
				}
				continue
			}
			if err := cert.CheckSeparator(cfg.G, res.Sep); err != nil {
				t.Fatalf("%s: cert rejects separator: %v", label, err)
			}
			if maxC := separator.VerifyBalance(cfg.G, res.Sep.Path); 3*maxC > 2*cfg.G.N() {
				t.Fatalf("%s: unbalanced: max component %d of n=%d", label, maxC, cfg.G.N())
			}
			if c.n == 1000 {
				verdict, err := cert.CertifySeparator(cfg.G, res.Sep, cert.Options{})
				if err != nil {
					t.Fatalf("%s: PLS error: %v", label, err)
				}
				if !verdict.OK {
					t.Fatalf("%s: distributed verifier rejected (rejectors %v)", label, verdict.Rejectors)
				}
			}
			succeeded++
		}
		if succeeded == 0 {
			t.Errorf("the baseline never produced a separator on family %s", family)
		}
	}
}
