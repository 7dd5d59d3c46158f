// Package randsep implements a randomized cycle-separator baseline in the
// style of Ghaffari and Parter (DISC 2017): face weights are *estimated*
// from a uniform vertex sample instead of computed exactly by the paper's
// deterministic formula. It exists to quantify what the deterministic
// algorithm buys (experiment E10): the sampling estimator needs
// Θ(log n / ε²) samples per face to stay inside the safety band with high
// probability, can fail (no face passes the band, or an unbalanced face
// passes), and its round cost in CONGEST carries the same Õ(D) shortcut
// factors plus the sampling overhead.
//
// The package is the repo's one *intentionally* randomized algorithm, and
// it still obeys the determinism policy enforced by planarvet
// (rngwallclock): the RNG is always derived from a caller-supplied seed,
// never from the process-global math/rand generator, so a baseline run is
// reproducible from its arguments alone.
package randsep

import (
	"fmt"
	"math/rand"

	"planardfs/internal/cert"
	"planardfs/internal/dist"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/weights"
)

// Result is the outcome of one randomized separator attempt.
type Result struct {
	Sep *separator.Separator
	// Samples is the number of sampled vertices.
	Samples int
	// EstimateErr is the largest absolute estimation error observed across
	// faces (diagnostic; computed against the deterministic formula).
	EstimateErr int
}

// Defaults for a zero sample rate or margin.
const (
	defaultSampleRate = 0.25
	defaultMargin     = 0.03
)

// Find estimates every real fundamental face's extent |F̄_e| (inside plus
// border) from a uniform vertex sample of the given rate, drawn from a
// generator seeded with seed, and returns the T-path of the first face
// whose estimate lies within [ (1/3+margin)n, (2/3-margin)n ]. A zero rate
// or margin selects 0.25 or 0.03.
//
// The estimate can miss: when no face lands in the band, or the face that
// does is unbalanced, the error wraps sepengine.ErrNoSeparator and the
// returned Result still carries the sample count — experiment E10
// measures that failure rate against the deterministic algorithm's 100%.
// A returned separator has passed cert.CheckSeparator. Any other error
// (a rate outside (0, 1], a rejected path) comes with a nil Result.
func Find(cfg *weights.Config, sampleRate, margin float64, seed int64) (*Result, error) {
	if sampleRate == 0 {
		sampleRate = defaultSampleRate
	}
	if margin == 0 {
		margin = defaultMargin
	}
	g, n := cfg.G, cfg.G.N()
	// The charged profile: the sampling broadcast plus one estimate
	// aggregation per range query and the final path marking. The span
	// keeps the name it carried as a registry engine.
	sepengine.Charge(cfg, "randomized", dist.PAProblemOps().Times(3).Plus(dist.MarkPathOps(n)))
	if sampleRate < 0 || sampleRate > 1 {
		return nil, fmt.Errorf("randsep: sample rate %v out of (0,1]", sampleRate)
	}

	rng := rand.New(rand.NewSource(seed))
	var sample []int
	for v := 0; v < n; v++ {
		if rng.Float64() < sampleRate {
			sample = append(sample, v)
		}
	}
	res := &Result{Samples: len(sample)}
	sep := estimate(cfg, sample, margin, res)
	if sep == nil {
		return res, fmt.Errorf("%w: no face estimate within the safety band (samples=%d)",
			sepengine.ErrNoSeparator, res.Samples)
	}
	if 3*separator.VerifyBalance(g, sep.Path) > 2*n {
		return res, fmt.Errorf("%w: sampled face is unbalanced (samples=%d, estErr=%d)",
			sepengine.ErrNoSeparator, res.Samples, res.EstimateErr)
	}
	if err := cert.CheckSeparator(g, sep); err != nil {
		return nil, fmt.Errorf("randsep: invalid separator: %w", err)
	}
	res.Sep = sep
	return res, nil
}

// estimate scans the real fundamental faces in order, recording the
// largest estimation error on res, and returns the T-path separator of the
// first face whose sampled extent lies in the safety band, or nil.
func estimate(cfg *weights.Config, sample []int, margin float64, res *Result) *separator.Separator {
	if len(sample) == 0 {
		return nil
	}
	n := cfg.G.N()
	lo := (1.0/3.0 + margin) * float64(n)
	hi := (2.0/3.0 - margin) * float64(n)
	scale := float64(n) / float64(len(sample))
	for _, e := range cfg.FundamentalEdges() {
		ec := cfg.Classify(e)
		hits := 0
		for _, z := range sample {
			b, in := cfg.InFace(ec, z)
			if b || in {
				hits++
			}
		}
		est := scale * float64(hits)
		exact := len(cfg.InsideNodes(ec)) + len(cfg.BorderNodes(ec))
		if d := int(est) - exact; d > res.EstimateErr {
			res.EstimateErr = d
		} else if -d > res.EstimateErr {
			res.EstimateErr = -d
		}
		if est >= lo && est <= hi {
			return &separator.Separator{
				Path:  cfg.Tree.TPath(ec.U, ec.V),
				EndA:  ec.U,
				EndB:  ec.V,
				Phase: separator.PhaseDirect,
			}
		}
	}
	return nil
}
