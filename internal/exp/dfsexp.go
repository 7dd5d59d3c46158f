package exp

import (
	"errors"
	"fmt"

	"planardfs/internal/congest"
	"planardfs/internal/dfs"
	"planardfs/internal/dist"
	"planardfs/internal/gen"
	"planardfs/internal/randsep"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/shortcut"
)

// E2Row is one sweep point of experiment E2 (Theorem 2: DFS rounds scale
// with Õ(D); Awerbuch with Θ(n)).
type E2Row struct {
	Family           string
	N, D             int
	Phases           int
	MaxJoinSubPhases int
	PaperRounds      int
	PipelinedRounds  int
	AwerbuchTheory   int
	AwerbuchMeasured int
	// NormPaper is PaperRounds/(D·log⁵n): roughly flat iff the Õ(D) shape
	// holds (one log from the recursion phases, two from the PA charge, two
	// from the subroutine invocation counts).
	NormPaper float64
}

// E2 sweeps DFS-tree constructions across families and sizes, also running
// Awerbuch's algorithm at the message level.
func E2(families []string, sizes []int, seed int64) ([]E2Row, error) {
	var rows []E2Row
	for _, fam := range families {
		for _, n := range sizes {
			in, err := gen.ByName(fam, n, seed)
			if err != nil {
				return nil, err
			}
			fs := in.Emb.TraceFaces()
			root := fs.FaceVertices(in.Emb.OuterFaceOf(in.OuterDart))[0]
			pt, tr, err := dfs.Build(in.G, in.Emb, in.OuterDart, root)
			if err != nil {
				return nil, err
			}
			if err := dfs.IsDFSTree(in.G, root, pt.Parent); err != nil {
				return nil, err
			}
			nn := in.G.N()
			d := in.G.Diameter()
			ops := dist.DFSBuildOps(nn, tr.Phases, tr.MaxJoinSubPhases)
			paper := ops.Rounds(shortcut.PaperCost{D: d, N: nn}, 1)
			pipe := ops.Rounds(shortcut.PipelinedCost{Depth: d}, 1)

			nw := congest.New(in.G)
			nodes := congest.NewAwerbuchNodes(nw, root)
			awRounds, err := nw.Run(nodes, 10*nn+100)
			if err != nil {
				return nil, err
			}
			l := shortcut.Log2Ceil(nn + 1)
			rows = append(rows, E2Row{
				Family: fam, N: nn, D: d,
				Phases: tr.Phases, MaxJoinSubPhases: tr.MaxJoinSubPhases,
				PaperRounds: paper, PipelinedRounds: pipe,
				AwerbuchTheory:   dist.AwerbuchRounds(nn),
				AwerbuchMeasured: awRounds,
				NormPaper:        float64(paper) / float64((d+1)*l*l*l*l*l),
			})
		}
	}
	return rows, nil
}

// E7Row records the separator-absorption trajectory of the largest JOIN of
// a DFS run (Lemma 2: geometric decrease).
type E7Row struct {
	Family        string
	N             int
	Phases        int
	JoinSubPhases int
	MaxJoin       int
	// LogBound is ceil(log2 n): the paper's bound on sub-phases per join
	// up to the path-count factor.
	LogBound int
}

// E7 measures join convergence.
func E7(families []string, n int, seed int64) ([]E7Row, error) {
	var rows []E7Row
	for _, fam := range families {
		in, err := gen.ByName(fam, n, seed)
		if err != nil {
			return nil, err
		}
		fs := in.Emb.TraceFaces()
		root := fs.FaceVertices(in.Emb.OuterFaceOf(in.OuterDart))[0]
		_, tr, err := dfs.Build(in.G, in.Emb, in.OuterDart, root)
		if err != nil {
			return nil, err
		}
		rows = append(rows, E7Row{
			Family: fam, N: in.G.N(),
			Phases: tr.Phases, JoinSubPhases: tr.JoinSubPhases,
			MaxJoin: tr.MaxJoinSubPhases, LogBound: shortcut.Log2Ceil(in.G.N() + 1),
		})
	}
	return rows, nil
}

// E9Row records the recursion-depth shrink factor (Section 6.2).
type E9Row struct {
	Family string
	N      int
	Phases int
	// MaxShrink is the worst phase-over-phase ratio of the largest
	// remaining component (must be <= 2/3 + o(1)).
	MaxShrink    float64
	MaxComponent []int
}

// E9 measures component shrink per phase.
func E9(families []string, n int, seed int64) ([]E9Row, error) {
	var rows []E9Row
	for _, fam := range families {
		in, err := gen.ByName(fam, n, seed)
		if err != nil {
			return nil, err
		}
		fs := in.Emb.TraceFaces()
		root := fs.FaceVertices(in.Emb.OuterFaceOf(in.OuterDart))[0]
		_, tr, err := dfs.Build(in.G, in.Emb, in.OuterDart, root)
		if err != nil {
			return nil, err
		}
		row := E9Row{Family: fam, N: in.G.N(), Phases: tr.Phases, MaxComponent: tr.MaxComponent}
		for i := 1; i < len(tr.MaxComponent); i++ {
			r := float64(tr.MaxComponent[i]) / float64(tr.MaxComponent[i-1])
			if r > row.MaxShrink {
				row.MaxShrink = r
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// E10Row compares the deterministic separator against the randomized
// sampling baseline at one sample rate.
type E10Row struct {
	Family     string
	N          int
	SampleRate float64
	Trials     int
	// RandOK counts trials where the randomized baseline returned a
	// balanced separator; DetOK likewise for the deterministic algorithm
	// (expected: always Trials).
	RandOK, DetOK int
	AvgSamples    float64
}

// E10 sweeps the randomized baseline's sample rate. The base seed is
// threaded explicitly: trial t uses instance seed baseSeed+t, and the
// sampling RNG is derived from the same seed, so a run is reproducible
// from its arguments alone (no global generator involved).
func E10(family string, n int, rates []float64, trials int, baseSeed int64) ([]E10Row, error) {
	var rows []E10Row
	for _, rate := range rates {
		row := E10Row{Family: family, N: n, SampleRate: rate}
		totalSamples := 0
		for t := 0; t < trials; t++ {
			seed := baseSeed + int64(t)
			in, err := gen.ByName(family, n, seed)
			if err != nil {
				return nil, err
			}
			cfg, err := configFor(in, "bfs")
			if err != nil {
				return nil, err
			}
			row.Trials++
			nn := in.G.N()
			dsep, err := separator.Find(cfg)
			if err != nil {
				return nil, err
			}
			if 3*separator.VerifyBalance(in.G, dsep.Path) <= 2*nn {
				row.DetOK++
			}
			// The sampling RNG is seeded with the trial seed * 1337, and a
			// success implies balance (randsep reports an unbalanced face
			// as a soft failure).
			res, err := randsep.Find(cfg, rate, 0.03, seed*1337)
			if err != nil && !errors.Is(err, sepengine.ErrNoSeparator) {
				return nil, err
			}
			totalSamples += res.Samples
			if err == nil {
				row.RandOK++
			}
		}
		row.AvgSamples = float64(totalSamples) / float64(row.Trials)
		rows = append(rows, row)
	}
	return rows, nil
}

// E11Row validates the Awerbuch baseline's Θ(n) round count at the message
// level.
type E11Row struct {
	Family   string
	N        int
	Rounds   int
	Bound    int
	Messages int64
}

// E11 runs Awerbuch's DFS across families.
func E11(families []string, n int, seed int64) ([]E11Row, error) {
	var rows []E11Row
	for _, fam := range families {
		in, err := gen.ByName(fam, n, seed)
		if err != nil {
			return nil, err
		}
		nw := congest.New(in.G)
		nodes := congest.NewAwerbuchNodes(nw, 0)
		rounds, err := nw.Run(nodes, 10*in.G.N()+100)
		if err != nil {
			return nil, err
		}
		parent := make([]int, in.G.N())
		for v := range parent {
			parent[v] = nodes[v].(*congest.AwerbuchNode).ParentID
		}
		if err := dfs.IsDFSTree(in.G, 0, parent); err != nil {
			return nil, fmt.Errorf("E11 %s: %w", fam, err)
		}
		rows = append(rows, E11Row{
			Family: fam, N: in.G.N(), Rounds: rounds,
			Bound: dist.AwerbuchRounds(in.G.N()), Messages: nw.Stats().Messages,
		})
	}
	return rows, nil
}
