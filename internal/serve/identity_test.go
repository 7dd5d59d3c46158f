package serve_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"planardfs"
	"planardfs/internal/chaos"
	"planardfs/internal/dfs"
	"planardfs/internal/gen"
	"planardfs/internal/pipeline"
	"planardfs/internal/serve"
)

// reportShape is the part of a recovery report every caller must agree
// on: the outcome, each attempt's charged rounds and round budget, and the
// rounds of every distributed verdict.
type reportShape struct {
	Outcome  chaos.Outcome
	Attempts []attemptShape
	Verdicts [][3]int // prover, verifier, aggregation rounds
}

type attemptShape struct {
	Stage                   string
	Attempt, Rounds, Budget int
}

func shapeOf(rep *chaos.Report) reportShape {
	s := reportShape{Outcome: rep.Outcome}
	for _, a := range rep.Attempts {
		s.Attempts = append(s.Attempts, attemptShape{a.Stage, a.Attempt, a.Rounds, a.Budget})
	}
	for _, v := range rep.Verdicts {
		s.Verdicts = append(s.Verdicts, [3]int{v.ProverRounds, v.VerifierRounds, v.AggRounds})
	}
	return s
}

// TestCrossCallerIdentity pins the single Theorem 2 composition: the
// facade's BuildDFSTreeGuarded, serve's cold build and pipeline.Run return
// byte-identical parent arrays and equal recovery reports for the same
// (instance, root, plan) — fault-free and under structural faults — and a
// fault-free run returns dfs.Build's tree. Serve always roots at the first
// vertex of the outer face, so it joins the comparison at that root only.
func TestCrossCallerIdentity(t *testing.T) {
	ctx := context.Background()
	retried := 0
	for _, fam := range gen.Families {
		for _, n := range []int{64, 300} {
			in, err := gen.ByName(fam, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			fs := in.Emb.TraceFaces()
			outer := fs.FaceVertices(in.OuterFace())
			roots := []int{outer[0]}
			for _, v := range outer[len(outer)/2:] {
				if v != outer[0] {
					roots = append(roots, v)
					break
				}
			}
			for _, spec := range []string{"", "structural=4"} {
				for ri, root := range roots {
					var plan *chaos.Plan
					if spec != "" {
						s, err := chaos.ParseSpec(spec)
						if err != nil {
							t.Fatal(err)
						}
						plan = chaos.NewPlan(7, s)
					}
					name := in.Name + "/" + spec
					run, err := pipeline.Run(ctx, in, pipeline.Options{Root: root, Plan: plan})
					if err != nil {
						t.Fatalf("%s root %d: pipeline: %v", name, root, err)
					}
					if run.Report.Outcome == chaos.OutcomeFailed {
						t.Fatalf("%s root %d: pipeline failed", name, root)
					}
					want := shapeOf(run.Report)
					if len(want.Attempts) > 1 {
						retried++
					}

					parent, rep, err := planardfs.BuildDFSTreeGuarded(ctx, in, root, planardfs.GuardOptions{Seed: 1}, plan, planardfs.RecoveryPolicy{})
					if err != nil {
						t.Fatalf("%s root %d: facade: %v", name, root, err)
					}
					if !slices.Equal(parent, run.Parent) {
						t.Fatalf("%s root %d: facade parent differs from pipeline.Run's", name, root)
					}
					if got := shapeOf(rep); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s root %d: facade report %+v, pipeline %+v", name, root, got, want)
					}

					if plan == nil {
						pt, _, err := dfs.Build(in.G, in.Emb, in.OuterDart, root)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(pt.Parent, run.Parent) {
							t.Fatalf("%s root %d: fault-free parent differs from dfs.Build's", name, root)
						}
					}

					if ri == 0 {
						d, err := serve.BuildDecomp(ctx, in, plan)
						if err != nil {
							t.Fatalf("%s: serve: %v", name, err)
						}
						if !slices.Equal(d.DFSParent, run.Parent) {
							t.Fatalf("%s: serve parent differs from pipeline.Run's", name)
						}
						if d.Outcome != want.Outcome.String() || d.Attempts != len(want.Attempts) {
							t.Fatalf("%s: serve outcome %s after %d attempts, pipeline %v after %d",
								name, d.Outcome, d.Attempts, want.Outcome, len(want.Attempts))
						}
						last := want.Verdicts[len(want.Verdicts)-1]
						if v := d.Verdicts[1]; v.Scheme != "dfs" || !v.OK || v.ProverRounds != last[0] || v.VerifierRounds != last[1] {
							t.Fatalf("%s: serve dfs verdict %+v, pipeline's accepted verdict rounds %v", name, v, last)
						}
					}
				}
			}
		}
	}
	if retried == 0 {
		t.Fatal("no structural plan forced a retry; the faulted comparison is vacuous")
	}
}
