package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"planardfs"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
)

// buildScale sizes a build workload.
type buildScale struct {
	family       string // "stacked" or "grid"
	nMain, nHalf int
	// minCycles is the number of cycles run even past the deadline; the
	// count metrics (charged_rounds and the traced counts) are taken over
	// exactly these first cycles, so they depend on the seed alone.
	minCycles int
}

// Benchmark-scale build workloads. The stacked sizes are powers of two;
// the grid sizes are the squares 128² and 91², about a factor two apart.
var (
	stackedBuild = buildScale{family: "stacked", nMain: 4096, nHalf: 2048, minCycles: 10}
	gridBuild    = buildScale{family: "grid", nMain: 128 * 128, nHalf: 91 * 91, minCycles: 5}
)

// makeInstance generates a fresh instance of the family: a seeded stacked
// triangulation, or the square grid (which ignores the seed).
func makeInstance(family string, n int, seed int64) (*gen.Instance, error) {
	if family == "grid" {
		side := int(math.Round(math.Sqrt(float64(n))))
		return gen.Grid(side, side)
	}
	return gen.StackedTriangulation(n, seed)
}

// outerRoot picks cycle i's DFS root among the outer-face vertices, at
// the golden-ratio sequence start + i·0.618… (mod 1): the roots of a run
// spread evenly around the face, so the run's medians do not hinge on a
// few lucky draws. On the grid, whose instance ignores the seed, the
// seeded start is how the seed varies the run.
func outerRoot(in *gen.Instance, start float64, i int) int {
	vs := in.Emb.TraceFaces().FaceVertices(in.OuterFace())
	_, frac := math.Modf(start + float64(i)*0.6180339887498949)
	return vs[int(frac*float64(len(vs)))]
}

// buildCycle holds one cycle's untimed preparation.
type buildCycle struct {
	main, half         *gen.Instance
	mainRoot, halfRoot int
	// corrupt holds one corrupted variant of the half-size instance per
	// corruption class.
	corrupt [numCorruptions]*gen.Instance
}

// prepareCycle generates cycle i's fresh instances, roots and corrupted
// variants from the run's generator.
func prepareCycle(sc buildScale, rng *rand.Rand, rootStart float64, i int) (*buildCycle, error) {
	c := &buildCycle{}
	var err error
	if c.main, err = makeInstance(sc.family, sc.nMain, rng.Int63()); err != nil {
		return nil, err
	}
	c.mainRoot = outerRoot(c.main, rootStart, i)
	if c.half, err = makeInstance(sc.family, sc.nHalf, rng.Int63()); err != nil {
		return nil, err
	}
	c.halfRoot = outerRoot(c.half, rootStart, i)
	for k := range c.corrupt {
		w, err := corruptWire(c.half, corruption(k), rng)
		if err != nil {
			return nil, err
		}
		if c.corrupt[k], err = w.Build(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// warmUp runs one untimed half-size build so the first timed build does
// not pay the process's heap growth and lazy initialisation.
func warmUp(rc *runtimeCounters, sc buildScale, rng *rand.Rand) error {
	in, err := makeInstance(sc.family, sc.nHalf, rng.Int63())
	if err != nil {
		return err
	}
	_, err = timedBuild(rc, in, outerRoot(in, rng.Float64(), 0))
	return err
}

// guardedBuild is one timed planardfs.BuildDFSTreeGuarded call.
type guardedBuild struct {
	parent   []int
	report   *planardfs.RecoveryReport
	wallNS   int64
	alloc    uint64
	gcCycles uint64
}

func timedBuild(rc *runtimeCounters, in *gen.Instance, root int) (*guardedBuild, error) {
	runtime.GC() // start every timed build from the same heap state
	a0, g0 := rc.read()
	t0 := now()
	parent, rep, err := planardfs.BuildDFSTreeGuarded(context.Background(), in, root, guardOptions, nil, planardfs.RecoveryPolicy{})
	t1 := now()
	a1, g1 := rc.read()
	if err != nil {
		return nil, err
	}
	return &guardedBuild{parent: parent, report: rep, wallNS: t1 - t0, alloc: a1 - a0, gcCycles: g1 - g0}, nil
}

// checkCertified checks a facade outcome: certified and a DFS tree.
func checkCertified(in *gen.Instance, root int, b *guardedBuild) error {
	if b.report.Outcome != planardfs.RecoveryCertified {
		return fmt.Errorf("%s: outcome %v, want certified", in.Name, b.report.Outcome)
	}
	if err := dfs.IsDFSTree(in.G, root, b.parent); err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	return nil
}

// chargedRounds is the paper-model cost of a certified result: the
// attempts' rounds plus the verdicts' prover, verifier and aggregation
// rounds.
func chargedRounds(rep *planardfs.RecoveryReport) int {
	r := 0
	for _, a := range rep.Attempts {
		r += a.Rounds
	}
	for _, v := range rep.Verdicts {
		r += v.ProverRounds + v.VerifierRounds + v.AggRounds
	}
	return r
}

// runBuild runs a build workload: closed loop, one caller. Each cycle
// builds a fresh main-size instance and a fresh half-size instance,
// submits one corrupted variant of the half-size instance per corruption
// class, each of which the guard must reject.
func runBuild(o options, sc buildScale) (*result, error) {
	res := newResult()
	res.params["family"] = sc.family
	res.params["n_main"] = sc.nMain
	res.params["n_half"] = sc.nHalf
	res.params["min_cycles"] = sc.minCycles
	if o.trace {
		return runBuildTraced(o, sc, res)
	}
	rng := rand.New(rand.NewSource(o.seed))
	rc := newRuntimeCounters()
	if err := warmUp(rc, sc, rng); err != nil {
		return nil, err
	}
	rootStart := rng.Float64()
	var setup, mainS, halfS, allocMB, rounds []float64
	var rejectMS [numCorruptions][]float64
	deadline := now() + int64(o.seconds*1e9)
	for i := 0; another(i, sc.minCycles, deadline); i++ {
		t0 := now()
		c, err := prepareCycle(sc, rng, rootStart, i)
		if err != nil {
			return nil, fmt.Errorf("cycle %d set-up: %w", i, err)
		}
		setup = append(setup, seconds(now()-t0))

		b, err := timedBuild(rc, c.main, c.mainRoot)
		if err == nil {
			err = checkCertified(c.main, c.mainRoot, b)
		}
		res.check(err)
		if err == nil {
			mainS = append(mainS, seconds(b.wallNS))
			allocMB = append(allocMB, float64(b.alloc)/1e6)
			if i < sc.minCycles {
				rounds = append(rounds, float64(chargedRounds(b.report)))
			}
		}

		h, err := timedBuild(rc, c.half, c.halfRoot)
		if err == nil {
			err = checkCertified(c.half, c.halfRoot, h)
		}
		res.check(err)
		if err == nil {
			halfS = append(halfS, seconds(h.wallNS))
		}

		for k, in := range c.corrupt {
			r, err := timedBuild(rc, in, c.halfRoot)
			if err == nil && r.report.Outcome != planardfs.RecoveryRejectedInput {
				err = fmt.Errorf("%s variant of %s: outcome %v, want rejected-input", corruption(k), c.half.Name, r.report.Outcome)
			}
			res.check(err)
			if err == nil {
				rejectMS[k] = append(rejectMS[k], float64(r.wallNS)/1e6)
			}
		}
	}
	res.set("setup_s", median(setup), len(setup))
	res.set("build_p50_s", median(mainS), len(mainS))
	res.set("build_exponent", exponent(median(mainS), median(halfS), sc.nMain, sc.nHalf), len(mainS)+len(halfS))
	res.set("build_alloc_mb", median(allocMB), len(allocMB))
	res.set("charged_rounds", mean(rounds), len(rounds))
	res.setRejects(rejectMS)
	return res, nil
}

// runBuildTraced is the traced run of a build workload: each cycle times
// the untraced facade build of a fresh main-size instance, then replays
// the same build with a span around every call into a layer, and checks
// that both produce the same parent array and charged rounds. A last
// main-size instance goes through planard once, for the serve layers.
func runBuildTraced(o options, sc buildScale, res *result) (*result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	rc := newRuntimeCounters()
	if err := warmUp(rc, sc, rng); err != nil {
		return nil, err
	}
	rootStart := rng.Float64()
	rec := newSpanRecorder()
	lt := newLayerSamples()
	deadline := now() + int64(o.seconds*1e9)
	for i := 0; another(i, sc.minCycles, deadline); i++ {
		c, err := prepareCycle(sc, rng, rootStart, i)
		if err != nil {
			return nil, fmt.Errorf("cycle %d set-up: %w", i, err)
		}
		b, err := timedBuild(rc, c.main, c.mainRoot)
		if err == nil {
			err = checkCertified(c.main, c.mainRoot, b)
		}
		res.check(err)
		if err != nil {
			continue
		}
		res.check(lt.replay(rec, c.main, c.mainRoot, b, i < sc.minCycles))
	}
	lt.report(res)
	res.spans = rec.spans
	in, err := makeInstance(sc.family, sc.nMain, rng.Int63())
	if err != nil {
		return nil, err
	}
	return res, probeServe(in, res)
}
