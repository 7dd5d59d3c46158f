package guard

import (
	"reflect"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/congest/congesttest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
)

// TestProgramsMatchReference runs the guard's two node programs — the
// ball probe (round-clocked) and the rotation checker — under the engine
// and under the step-all reference, with and without a chaos injector:
// rounds, stats, traces, fault counts and every node's final state must
// agree.
func TestProgramsMatchReference(t *testing.T) {
	plans := []*chaos.Plan{nil, chaos.NewPlan(5, chaos.Spec{
		Drops: 6, Corruptions: 6, Stalls: 6, LinkDowns: 1, Crashes: 2, Horizon: 6,
	})}
	var fired chaos.Counts
	check := func(name string, g *graph.Graph, maxWords int, build func(*congest.Network) []congest.Node, maxRounds int) {
		t.Helper()
		for _, plan := range plans {
			setup := func(nw *congest.Network) func() any {
				nw.MaxWords = maxWords
				if inj := plan.Arm(nw, 1); inj != nil {
					return func() any { return inj.Counts() }
				}
				return nil
			}
			eng, ref := congesttest.Compare(t, g, setup, build, maxRounds)
			if !reflect.DeepEqual(eng.Nodes, ref.Nodes) {
				t.Fatalf("%s: node states diverge from the reference", name)
			}
			if c, ok := eng.Faults.(chaos.Counts); ok {
				fired.Add(c)
			}
		}
	}

	graphs := []*graph.Graph{denseTestGraph(t, 40, 7)}
	for _, fam := range []string{"grid", "stacked", "wheel"} {
		in, err := gen.ByName(fam, 40, 3)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, in.G)

		rot := gen.WireOf(in).Rotations
		check(fam+"/rotation", in.G, 4, func(nw *congest.Network) []congest.Node { return rotNodes(nw, rot) }, rotationRounds)
		bad := corruptRotations(in, 41, func(p *chaos.Plan, r [][]int) int { return p.RetargetDarts(1, in.G.N(), r) })
		check(fam+"/rotation-retargeted", in.G, 4, func(nw *congest.Network) []congest.Node { return rotNodes(nw, bad) }, rotationRounds)
	}
	for _, g := range graphs {
		for _, radius := range []int{1, 2, 3} {
			for _, center := range []int{0, g.N() / 2, g.N() - 1} {
				check("ball", g, 3, func(*congest.Network) []congest.Node { return ballNodes(g, center, radius) }, ballRounds(radius))
			}
		}
	}
	if fired.Drops == 0 || fired.Corruptions == 0 || fired.Stalls == 0 || fired.Crashes == 0 {
		t.Fatalf("some fault kind never fired: %v", fired)
	}
}
