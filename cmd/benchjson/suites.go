package main

import (
	"context"
	"errors"
	"fmt"

	"planardfs/internal/cert"
	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/guard"
	"planardfs/internal/pipeline"
	"planardfs/internal/separator"
	"planardfs/internal/sepengine"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// CongestRow is one program run on the round engine (suites congest and
// scaling). Scaling's "construct" rows time instance construction and
// leave the round columns zero.
type CongestRow struct {
	Row
	Program           string  `json:"program"`
	Rounds            int     `json:"rounds"`
	Messages          int64   `json:"messages"`
	Words             int64   `json:"words"`
	MaxEdgeCongestion int64   `json:"max_edge_congestion"`
	RoundsPerSec      float64 `json:"rounds_per_sec"`
	MessagesPerSec    float64 `json:"messages_per_sec"`
}

// scaleBFSMax is the largest scaling size that also gets a BFS row.
const scaleBFSMax = 1_000_000

func congestRows(family string, n int) ([]row, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, program := range []string{"bfs", "pa", "dfs"} {
		r, err := programRow(family, program, in.G)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", program, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// scalingRows times instance construction, whose allocation count on the
// flat substrate is a small constant independent of n, then a BFS flood.
func scalingRows(family string, n int) ([]row, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return nil, err
	}
	construct := &CongestRow{Row: instanceRow(family, in.G), Program: "construct"}
	if err := measure(&construct.Row, func() error {
		_, err := gen.ByName(family, n, 1)
		return err
	}); err != nil {
		return nil, err
	}
	rows := []row{construct}
	if n <= scaleBFSMax {
		r, err := programRow(family, "bfs", in.G)
		if err != nil {
			return nil, fmt.Errorf("bfs: %w", err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

func programRow(family, program string, g *graph.Graph) (*CongestRow, error) {
	var build func(nw *congest.Network) []congest.Node
	var budget int
	switch program {
	case "bfs":
		build = func(nw *congest.Network) []congest.Node { return congest.NewBFSNodes(nw, 0) }
		budget = 10*g.N() + 100
	case "pa":
		tree, err := spanning.BFSTree(g, 0)
		if err != nil {
			return nil, err
		}
		partOf := make([]int, g.N())
		value := make([]int, g.N())
		for v := range partOf {
			partOf[v] = v % 16
			value[v] = 1
		}
		build = func(nw *congest.Network) []congest.Node {
			return congest.NewPANodes(nw, tree.Parent, 0, partOf, value, congest.OpSum)
		}
		budget = 100*g.N() + 1000
	case "dfs":
		build = func(nw *congest.Network) []congest.Node { return congest.NewAwerbuchNodes(nw, 0) }
		budget = 10 * g.N()
	}

	nw := congest.New(g)
	r := &CongestRow{Row: instanceRow(family, g), Program: program}
	if err := measure(&r.Row, func() error {
		_, err := nw.Run(build(nw), budget)
		return err
	}); err != nil {
		return nil, err
	}
	st := nw.Stats()
	r.Rounds, r.Messages, r.Words, r.MaxEdgeCongestion = st.Rounds, st.Messages, st.Words, st.MaxEdgeCongestion
	if secs := float64(r.WallNs) / 1e9; secs > 0 {
		r.RoundsPerSec = float64(st.Rounds) / secs
		r.MessagesPerSec = float64(st.Messages) / secs
	}
	return r, nil
}

// CertRow is the prove-and-verify certification of one correct output.
type CertRow struct {
	Row
	Scheme         string `json:"scheme"`
	LabelWords     int    `json:"label_words"`
	ProverRounds   int    `json:"prover_rounds"`
	VerifierRounds int    `json:"verifier_rounds"`
	AggRounds      int    `json:"agg_rounds"`
	Messages       int64  `json:"messages"`
	Words          int64  `json:"words"`
}

func certRows(family string, n int) ([]row, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return nil, err
	}
	g := in.G
	var opt cert.Options
	bfs, err := spanning.BFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	deep, err := spanning.DeepDFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	cfg, err := outerConfig(in)
	if err != nil {
		return nil, err
	}
	sep, err := separator.Find(cfg)
	if err != nil {
		return nil, err
	}
	schemes := []struct {
		name    string
		certify func() (*cert.Verdict, error)
	}{
		{"spanning", func() (*cert.Verdict, error) { return cert.CertifySpanningTree(g, bfs, opt) }},
		{"dfs", func() (*cert.Verdict, error) { return cert.CertifyDFSTree(g, 0, deep.Parent, opt) }},
		{"separator", func() (*cert.Verdict, error) { return cert.CertifySeparator(g, sep, opt) }},
		{"embedding", func() (*cert.Verdict, error) { return cert.CertifyEmbedding(in.Emb, opt) }},
	}
	var rows []row
	for _, s := range schemes {
		r := &CertRow{Row: instanceRow(family, g), Scheme: s.name}
		var v *cert.Verdict
		if err := measure(&r.Row, func() (err error) {
			if v, err = s.certify(); err == nil && !v.OK {
				err = fmt.Errorf("correct output rejected at %v", v.Rejectors)
			}
			return err
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		r.LabelWords, r.ProverRounds, r.VerifierRounds, r.AggRounds = v.LabelWords, v.ProverRounds, v.VerifierRounds, v.AggRounds
		r.Messages, r.Words = v.Stats.Messages, v.Stats.Words
		rows = append(rows, r)
	}
	return rows, nil
}

// outerConfig is the planar configuration under a BFS tree rooted on the
// outer face, as Theorem 1 requires.
func outerConfig(in *gen.Instance) (*weights.Config, error) {
	tree, err := spanning.BFSTree(in.G, in.OuterRoot())
	if err != nil {
		return nil, err
	}
	return weights.NewConfig(in.G, in.Emb, in.OuterDart, tree)
}

// ChaosRow is one supervised run under a fault plan. The overhead column
// is total supervised rounds over the fault-free rounds of the same stage.
type ChaosRow struct {
	Row
	Program        string  `json:"program"`
	Spec           string  `json:"spec"`
	Seed           int64   `json:"seed"`
	Outcome        string  `json:"outcome"`
	Attempts       int     `json:"attempts"`
	RoundsTotal    int     `json:"rounds_total"`
	BaselineRounds int     `json:"baseline_rounds"`
	RoundOverhead  float64 `json:"round_overhead"`
	FaultsFired    int64   `json:"faults_fired"`
}

// chaosScenarios are the fault plans the baseline sweeps, from quiescent
// supervision overhead to a mixed plan that usually forces retries.
// The tight horizon concentrates the random fault rounds into the live
// prefix of the run (a BFS on these instances finishes in a few dozen
// rounds). Point faults (drop/corrupt/stall) only fire when they land on
// an in-flight message, so the bursts are sized for a couple of expected
// hits; link-down and crash are persistent and fire on their own.
var chaosScenarios = []string{
	"",
	"drops=48,horizon=24",
	"corruptions=48,horizon=24",
	"linkdowns=2,horizon=24",
	"drops=3,corruptions=2,crashes=1,horizon=24",
}

func chaosRows(family string, n int) ([]row, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, program := range []string{"bfs", "awerbuch"} {
		for _, spec := range chaosScenarios {
			r, err := chaosRow(family, program, spec, in.G)
			if err != nil {
				return nil, fmt.Errorf("%s %q: %w", program, spec, err)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// chaosRow measures one supervised run: the stage under the fault plan,
// certification after every attempt, retries with backoff and (for the
// DFS program) degradation to a fault-free fallback.
func chaosRow(family, program, spec string, g *graph.Graph) (*ChaosRow, error) {
	const seed = 1
	var opt cert.Options
	var plan *chaos.Plan
	if spec != "" {
		s, err := chaos.ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		s.Protect = []int{0} // the root survives: crashes land elsewhere
		plan = chaos.NewPlan(seed, s)
	}
	supervise := func(p *chaos.Plan) (*chaos.Report, error) {
		if program == "bfs" {
			_, rep, err := chaos.Run(context.Background(), nil, chaos.BFSTreeStage(g, 0, p, opt), nil, chaos.Policy{})
			return rep, err
		}
		fallback := chaos.AwerbuchDFS(g, 0, nil, opt)
		_, rep, err := chaos.Run(context.Background(), nil, chaos.AwerbuchDFS(g, 0, p, opt), &fallback, chaos.Policy{})
		return rep, err
	}

	base, err := supervise(nil)
	if err != nil {
		return nil, err
	}
	r := &ChaosRow{Row: instanceRow(family, g), Program: program, Spec: spec, Seed: seed, BaselineRounds: totalRounds(base)}
	var rep *chaos.Report
	if err := measure(&r.Row, func() (err error) {
		rep, err = supervise(plan)
		return err
	}); err != nil {
		return nil, err
	}
	r.Outcome, r.Attempts, r.RoundsTotal, r.FaultsFired = rep.Outcome.String(), len(rep.Attempts), totalRounds(rep), rep.Faults.Total()
	if r.BaselineRounds > 0 {
		r.RoundOverhead = float64(r.RoundsTotal) / float64(r.BaselineRounds)
	}
	return r, nil
}

func totalRounds(rep *chaos.Report) int {
	total := 0
	for _, a := range rep.Attempts {
		total += a.Rounds
	}
	return total
}

// EngineRow is one separator engine on one instance. A "no-separator"
// verdict marks an honest typed failure (the engine covers no balanced
// cycle on this instance); such rows carry zero cycle length and balance.
type EngineRow struct {
	Row
	Engine      string  `json:"engine"`
	CycleLen    int     `json:"cycle_len"`
	Balance     float64 `json:"balance"`
	Rounds      int     `json:"rounds"`
	Phase       string  `json:"phase"`
	CertVerdict string  `json:"cert_verdict"`
}

func engineRows(family string, n int) ([]row, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, engine := range sepengine.Names() {
		cfg, err := outerConfig(in)
		if err != nil {
			return nil, err
		}
		r := &EngineRow{Row: instanceRow(family, in.G), Engine: engine}
		var res *sepengine.Result
		var findErr error
		if err := measure(&r.Row, func() error {
			res, findErr = sepengine.Find(engine, cfg)
			if errors.Is(findErr, sepengine.ErrNoSeparator) {
				return nil
			}
			return findErr
		}); err != nil {
			return nil, fmt.Errorf("%s: %w", engine, err)
		}
		if findErr != nil {
			r.CertVerdict = "no-separator"
		} else {
			r.CycleLen, r.Balance, r.Rounds, r.Phase = res.CycleLen, res.Balance, res.Rounds, res.Sep.Phase.String()
			v, err := cert.CertifySeparator(in.G, res.Sep, cert.Options{})
			if err != nil {
				return nil, err
			}
			r.CertVerdict = "accept"
			if !v.OK {
				r.CertVerdict = fmt.Sprintf("reject at %d vertices", len(v.Rejectors))
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// GuardRow is one admission-guard validation. The "valid" case validates a
// correct generator instance (the guard must accept) and reports the
// guard's cost next to the charged paper-model rounds of the Theorem 2 DFS
// build it fronts, so the overhead column is the price of admission
// relative to the pipeline itself. The corrupted cases measure rejection
// latency: how much work the guard does before producing a typed witness.
type GuardRow struct {
	Row
	Case     string `json:"case"`
	Accepted bool   `json:"accepted"`
	// Reason is the witness class of a rejection, empty when accepted.
	Reason string `json:"reason,omitempty"`
	// GuardRounds/GuardMessages are the deterministic CONGEST cost of the
	// guard's distributed checks under guardOptions.
	GuardRounds   int   `json:"guard_rounds"`
	GuardMessages int64 `json:"guard_messages"`
	// PipelineRounds is the charged Õ(D) round cost of the Theorem 2 DFS
	// build on the same instance; valid rows only.
	PipelineRounds int     `json:"pipeline_rounds,omitempty"`
	Overhead       float64 `json:"overhead,omitempty"`
}

// guardOptions pins the tester configuration the baseline is defined
// against: deterministic centers and every vertex probed, so the rows are
// machine-independent in everything but the measured columns.
var guardOptions = guard.Options{Seed: 1, Exhaustive: true}

// guardRows measures the valid-acceptance row plus the two
// rotation-corruption rejection rows for one instance.
func guardRows(family string, n int) ([]row, error) {
	in, err := gen.ByName(family, n, 1)
	if err != nil {
		return nil, err
	}
	valid, err := guardRow(family, "valid", in.G, gen.WireOf(in).Rotations, true)
	if err != nil {
		return nil, err
	}
	run, err := pipeline.Run(context.Background(), in, pipeline.Options{Root: in.OuterRoot()})
	if err != nil {
		return nil, err
	}
	valid.PipelineRounds = run.Report.Attempts[0].Rounds
	if valid.PipelineRounds > 0 {
		valid.Overhead = float64(valid.GuardRounds) / float64(valid.PipelineRounds)
	}
	rows := []row{valid}

	// A retargeted dart: the distributed rotation check catches it in the
	// one exchange round.
	rot := gen.WireOf(in).Rotations
	if chaos.NewPlan(41, chaos.Spec{Structural: 2}).RetargetDarts(1, in.G.N(), rot) == 0 {
		return nil, fmt.Errorf("retarget applied nothing")
	}
	r, err := guardRow(family, "retargeted-dart", in.G, rot, false)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)

	// A permutation-preserving splice that raises the genus: every local
	// check passes and the Euler certification rejects, the guard's most
	// expensive path.
	if spliced, ok := splicedRotations(in); ok {
		r, err := guardRow(family, "genus-splice", in.G, spliced, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// splicedRotations searches deterministic seeds for a rotation splice that
// leaves every rotation a permutation of its neighbourhood but lifts the
// embedding off the sphere. Some families (trees, tiny instances) admit no
// such corruption; those report ok=false and skip the row.
func splicedRotations(in *gen.Instance) ([][]int, bool) {
	for seed := int64(1); seed < 100; seed++ {
		rot := gen.WireOf(in).Rotations
		p := chaos.NewPlan(seed, chaos.Spec{Structural: 4})
		if p.SpliceFaces(1, rot) == 0 && p.SpliceRotations(2, rot) == 0 {
			continue
		}
		v, err := guard.ValidateRotations(in.G, rot, guardOptions)
		if err == nil && !v.OK && v.Witness.Reason == guard.ReasonEuler {
			return rot, true
		}
	}
	return nil, false
}

// guardDenseRows measures the family-independent dense-region rejection:
// a K7 planted on a 64-vertex path, invisible to the global edge count but
// over the planar bound inside a radius-1 ball.
func guardDenseRows() ([]row, error) {
	const n = 64
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if _, err := g.AddEdge(v, v+1); err != nil {
			return nil, err
		}
	}
	for u := 0; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			if _, dup := g.EdgeID(u, v); !dup {
				if _, err := g.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	rot := make([][]int, n)
	for v := 0; v < n; v++ {
		rot[v] = append([]int(nil), g.Neighbors(v)...)
	}
	r, err := guardRow("k7-plant", "dense-region", g, rot, false)
	if err != nil {
		return nil, err
	}
	return []row{r}, nil
}

// guardRow measures one ValidateRotations call and checks the verdict has
// the expected polarity before trusting the numbers.
func guardRow(family, kind string, g *graph.Graph, rot [][]int, wantOK bool) (*GuardRow, error) {
	var v *guard.Verdict
	r := &GuardRow{Row: instanceRow(family, g), Case: kind}
	if err := measure(&r.Row, func() (err error) {
		v, err = guard.ValidateRotations(g, rot, guardOptions)
		return err
	}); err != nil {
		return nil, err
	}
	if v.OK != wantOK {
		return nil, fmt.Errorf("%s: verdict OK=%v, want %v (%v)", kind, v.OK, wantOK, v.Witness)
	}
	r.Accepted, r.GuardRounds, r.GuardMessages = v.OK, v.Rounds, v.Messages
	if !v.OK {
		r.Reason = string(v.Witness.Reason)
	}
	return r, nil
}
