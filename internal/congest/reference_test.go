package congest_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/congest/congesttest"
	"planardfs/internal/gen"
	"planardfs/internal/graph"
	"planardfs/internal/shortcut"
)

// The engine-identity tests: every built-in program, and randomized
// traffic, must run byte-identically under Network.Run and under the
// step-all reference loop of congesttest — rounds, Stats, traces, fault
// counts and every node's final state — with and without a chaos injector.

// faultPlans are the injection settings every identity test sweeps: none,
// and a mixed plan with every fault kind (the root is never crashed).
func faultPlans(seed int64) []struct {
	name string
	plan *chaos.Plan
} {
	return []struct {
		name string
		plan *chaos.Plan
	}{
		{"clean", nil},
		{"chaos", chaos.NewPlan(seed, chaos.Spec{
			Drops: 30, Corruptions: 30, Stalls: 30, LinkDowns: 1, Crashes: 2,
			Horizon: 16, Protect: []int{0},
		})},
	}
}

// armed returns the Setup that arms plan's first attempt on the network
// and reports the fired fault counts.
func armed(plan *chaos.Plan) congesttest.Setup {
	if plan == nil {
		return nil
	}
	return func(nw *congest.Network) func() any {
		inj := plan.Arm(nw, 1)
		if inj == nil {
			return nil
		}
		return func() any { return inj.Counts() }
	}
}

// compareNodes runs the programs under both loops and fails unless every
// node ends in the same state.
func compareNodes(t *testing.T, g *graph.Graph, plan *chaos.Plan, build func(*congest.Network) []congest.Node, maxRounds int) congesttest.Run {
	t.Helper()
	eng, ref := congesttest.Compare(t, g, armed(plan), build, maxRounds)
	for v := range eng.Nodes {
		if !reflect.DeepEqual(eng.Nodes[v], ref.Nodes[v]) {
			t.Fatalf("node %d ends in a different state\nengine:    %+v\nreference: %+v", v, eng.Nodes[v], ref.Nodes[v])
		}
	}
	return eng
}

// TestEventScheduleEquivalence runs every built-in program of the package
// on random planar graphs against the reference.
func TestEventScheduleEquivalence(t *testing.T) {
	var fired chaos.Counts
	for trial := 0; trial < 12; trial++ {
		family := "sparse"
		if trial%2 == 1 {
			family = "stacked"
		}
		in, err := gen.ByName(family, 80+17*trial, int64(trial+7))
		if err != nil {
			t.Fatal(err)
		}
		g := in.G
		n := g.N()
		bfs := g.BFS(0)
		parent := bfs.Parent
		value := make([]int, n)
		partOf := make([]int, n)
		for v := range value {
			value[v] = (v*2654435761 + trial) % 1000
			partOf[v] = v % (3 + trial%5)
		}
		// Borůvka needs connected parts: BFS-order prefixes of a BFS tree.
		borPart := make([]int, n)
		for i, v := range bfs.Order {
			borPart[v] = i * 3 / n
		}
		if p, err := shortcut.NewPartition(borPart); err != nil || p.Validate(g) != nil {
			borPart = make([]int, n)
		}

		programs := []struct {
			name   string
			build  func(nw *congest.Network) []congest.Node
			budget int
		}{
			{"bfs", func(nw *congest.Network) []congest.Node { return congest.NewBFSNodes(nw, 0) }, 4 * n},
			{"awerbuch", func(nw *congest.Network) []congest.Node { return congest.NewAwerbuchNodes(nw, 0) }, 10 * n},
			{"convergecast", func(nw *congest.Network) []congest.Node {
				return congest.NewConvergecastNodes(nw, parent, 0, value, congest.OpSum)
			}, 4 * n},
			{"ancestorsum", func(nw *congest.Network) []congest.Node {
				return congest.NewAncestorSumNodes(nw, parent, 0, value, congest.OpSum)
			}, 4 * n},
			{"broadcast", func(nw *congest.Network) []congest.Node {
				return congest.NewBroadcastNodes(nw, parent, 0, 42+trial)
			}, 4 * n},
			{"pa", func(nw *congest.Network) []congest.Node {
				return congest.NewPANodes(nw, parent, 0, partOf, value, congest.OpMin)
			}, 16 * n},
			{"boruvka", func(nw *congest.Network) []congest.Node {
				return congest.NewBoruvkaNodes(nw, borPart)
			}, (2*n + 4) * (shortcut.Log2Ceil(n) + 3)},
		}
		for _, prog := range programs {
			for _, fp := range faultPlans(int64(trial + 1)) {
				t.Run(fmt.Sprintf("%d/%s/%s", trial, prog.name, fp.name), func(t *testing.T) {
					eng := compareNodes(t, g, fp.plan, prog.build, prog.budget)
					if fp.plan == nil && eng.Err != "" {
						t.Fatalf("fault-free run failed: %s", eng.Err)
					}
					if c, ok := eng.Faults.(chaos.Counts); ok {
						fired.Add(c)
					}
				})
			}
		}
	}
	t.Logf("fired over the sweep: %v", fired)
	if fired.Drops == 0 || fired.Corruptions == 0 || fired.Stalls == 0 || fired.LinkDownDrops == 0 || fired.Crashes == 0 {
		t.Fatalf("some fault kind never fired over the sweep: %v", fired)
	}
}

// stepCounter wraps a program and counts the engine's calls into it.
type stepCounter struct {
	congest.Node
	steps *int
}

func (s stepCounter) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	*s.steps++
	return s.Node.Round(round, recv)
}

// TestEventScheduleSelected pins that the engine skips quiescent nodes: a
// BFS on a long path steps each vertex a constant number of times, not
// once per round as a step-all loop would.
func TestEventScheduleSelected(t *testing.T) {
	in, err := gen.ByName("path", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := in.G
	nw := congest.New(g)
	steps := 0
	nodes := congest.NewBFSNodes(nw, 0)
	for v, nd := range nodes {
		nodes[v] = stepCounter{nd, &steps}
	}
	rounds, err := nw.Run(nodes, 4*g.N())
	if err != nil {
		t.Fatal(err)
	}
	if rounds < g.N()/2 {
		t.Fatalf("BFS on a %d-path took %d rounds", g.N(), rounds)
	}
	if steps > 4*g.N() {
		t.Fatalf("%d node steps over %d rounds: quiescent nodes were stepped", steps, rounds)
	}
}

// chatterNode is a deterministic pseudo-random traffic generator: each
// round up to stopRound it sends on a seeded-random subset of its ports
// with random-sized payloads, then halts. It is round-clocked, so it wakes
// every round until it stops. It records every non-empty inbox with its
// round (a deep copy, since the engine recycles the recv buffer).
type chatterNode struct {
	deg       int
	state     uint64
	stopRound int
	history   map[int][]congest.Incoming
}

func (c *chatterNode) WakeAt(round int) int {
	if round < c.stopRound {
		return round + 1
	}
	return -1
}

func (c *chatterNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	if len(recv) > 0 {
		c.history[round] = append([]congest.Incoming(nil), recv...)
	}
	if round >= c.stopRound {
		return nil, true
	}
	var send []congest.Outgoing
	for p := 0; p < c.deg; p++ {
		c.state = c.state*6364136223846793005 + 1442695040888963407
		r := c.state >> 33
		if r%3 != 0 {
			continue
		}
		nargs := int(r>>8) % 4 // 0..3 args: at most 4 words, the default cap
		args := make([]int, nargs)
		for i := range args {
			args[i] = int((r >> (16 + 4*i)) & 0xff)
		}
		send = append(send, congest.Outgoing{Port: p, Msg: congest.Message{Kind: int(r % 16), Args: args}})
	}
	return send, false
}

// TestEnginesEquivalentRandomized runs pseudo-random traffic on 20 random
// planar graphs against the reference: identical Stats (including the
// RoundMessages histogram and MaxEdgeCongestion), traces, fault counts and
// per-node inbox histories, round by round.
func TestEnginesEquivalentRandomized(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		family := "sparse"
		if trial%2 == 1 {
			family = "stacked"
		}
		in, err := gen.ByName(family, 96+13*trial, int64(trial+1))
		if err != nil {
			t.Fatal(err)
		}
		g := in.G
		build := func(nw *congest.Network) []congest.Node {
			nodes := make([]congest.Node, g.N())
			for v := range nodes {
				nodes[v] = &chatterNode{
					deg:       g.Degree(v),
					state:     uint64(trial)<<32 | uint64(v)*2654435761 + 1,
					stopRound: 12,
					history:   map[int][]congest.Incoming{},
				}
			}
			return nodes
		}
		for _, fp := range faultPlans(int64(trial + 3)) {
			eng := compareNodes(t, g, fp.plan, build, 100)
			if eng.Stats.MaxEdgeCongestion == 0 || len(eng.Stats.RoundMessages) == 0 {
				t.Fatalf("trial %d %s: degenerate run, stats %+v", trial, fp.name, eng.Stats)
			}
		}
	}
}

// quietNode never sends and never halts.
type quietNode struct{}

func (quietNode) Round(int, []congest.Incoming) ([]congest.Outgoing, bool) { return nil, false }

// doubleSendNode sends two messages on port 0 in round 0.
type doubleSendNode struct{}

func (doubleSendNode) Round(round int, _ []congest.Incoming) ([]congest.Outgoing, bool) {
	if round > 0 {
		return nil, true
	}
	return []congest.Outgoing{{Port: 0, Msg: congest.Message{Kind: 1}}, {Port: 0, Msg: congest.Message{Kind: 2}}}, true
}

// Regression for the epoch-stamped duplicate-port detection: two sends on
// one port in one round must be rejected, with the same typed error from
// the engine and the reference, on a graph where the sender is one of
// many.
func TestDuplicatePortRejectedBothEngines(t *testing.T) {
	in, err := gen.ByName("grid", 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	build := func(nw *congest.Network) []congest.Node {
		nodes := make([]congest.Node, nw.G.N())
		for v := range nodes {
			nodes[v] = quietNode{}
		}
		nodes[37] = doubleSendNode{}
		return nodes
	}
	eng, _ := congesttest.Compare(t, in.G, nil, build, 10)
	if !strings.Contains(eng.Err, "two messages on port") || !strings.Contains(eng.Err, "node 37 ") {
		t.Fatalf("wrong error: %q", eng.Err)
	}
}
