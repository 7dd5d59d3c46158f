package congest_test

import (
	"errors"
	"testing"

	"planardfs/internal/chaos"
	"planardfs/internal/congest"
	"planardfs/internal/congest/congesttest"
	"planardfs/internal/graph"
)

// Edge cases of the wake-up rule, each checked against the step-all
// reference: the engine must step a node whenever a step-all loop's call
// would not be a no-op, and must end the run exactly when that loop does.

// pathGraph is the path 0 - 1 - 2: edge 0 is {0,1}, edge 1 is {1,2}.
func pathGraph() *graph.Graph {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	return g
}

// alarmNode sends one message on port 0 at round at, with no message to
// prompt it, then halts; before that it is not done.
type alarmNode struct{ at int }

func (a *alarmNode) WakeAt(round int) int {
	if round < a.at {
		return a.at
	}
	return -1
}

func (a *alarmNode) Round(round int, _ []congest.Incoming) ([]congest.Outgoing, bool) {
	if round == a.at {
		return []congest.Outgoing{{Port: 0, Msg: congest.Message{Kind: 1, Args: []int{round}}}}, true
	}
	return nil, round > a.at
}

// listenNode is done from the start and records the round of every
// message it receives.
type listenNode struct{ heard []int }

func (l *listenNode) Round(round int, recv []congest.Incoming) ([]congest.Outgoing, bool) {
	for range recv {
		l.heard = append(l.heard, round)
	}
	return nil, true
}

func listeners(n int) []congest.Node {
	nodes := make([]congest.Node, n)
	for v := range nodes {
		nodes[v] = &listenNode{}
	}
	return nodes
}

// explicit returns the Setup arming a plan of the given faults.
func explicit(faults ...chaos.Fault) congesttest.Setup {
	return armed(&chaos.Plan{Faults: faults})
}

func TestWakeOnlySpontaneousAct(t *testing.T) {
	build := func(nw *congest.Network) []congest.Node {
		nodes := listeners(3)
		nodes[2] = &alarmNode{at: 7}
		return nodes
	}
	eng, _ := congesttest.Compare(t, pathGraph(), nil, build, 50)
	if eng.Err != "" || eng.Rounds != 9 {
		t.Fatalf("rounds %d err %q, want 9 rounds", eng.Rounds, eng.Err)
	}
	if got := eng.Nodes[1].(*listenNode).heard; len(got) != 1 || got[0] != 8 {
		t.Fatalf("vertex 1 heard at rounds %v, want [8]", got)
	}
}

func TestWakeCrashOnEmptyInbox(t *testing.T) {
	// Vertex 1 never halts on its own; the crash at round 5, when nothing
	// is in flight toward it, is what makes it done and ends the run.
	build := func(nw *congest.Network) []congest.Node {
		nodes := listeners(3)
		nodes[1] = quietNode{}
		return nodes
	}
	eng, _ := congesttest.Compare(t, pathGraph(), explicit(chaos.Fault{Kind: chaos.Crash, Node: 1, Round: 5}), build, 50)
	if eng.Err != "" || eng.Rounds != 6 {
		t.Fatalf("rounds %d err %q, want 6 rounds", eng.Rounds, eng.Err)
	}
	if c := eng.Faults.(chaos.Counts); c.Crashes != 1 {
		t.Fatalf("fired %v, want one crash", c)
	}
}

func TestWakeStallReleaseToIdleReceiver(t *testing.T) {
	// Vertex 0 sends at round 0; the message into vertex 1 is stalled for
	// 4 rounds while every node is done, then released at round 4.
	build := func(nw *congest.Network) []congest.Node {
		nodes := listeners(3)
		nodes[0] = &alarmNode{at: 0}
		return nodes
	}
	stall := chaos.Fault{Kind: chaos.Stall, Edge: 0, IntoV: true, Round: 0, Len: 4}
	eng, _ := congesttest.Compare(t, pathGraph(), explicit(stall), build, 50)
	if eng.Err != "" || eng.Rounds != 6 {
		t.Fatalf("rounds %d err %q, want 6 rounds", eng.Rounds, eng.Err)
	}
	if got := eng.Nodes[1].(*listenNode).heard; len(got) != 1 || got[0] != 5 {
		t.Fatalf("vertex 1 heard at rounds %v, want [5]", got)
	}
	if c := eng.Faults.(chaos.Counts); c.Stalls != 1 {
		t.Fatalf("fired %v, want one stall", c)
	}
}

// sleeperNode is done from the start but asks to be woken at round at.
type sleeperNode struct {
	at    int
	woken bool
}

func (s *sleeperNode) WakeAt(round int) int {
	if round < s.at {
		return s.at
	}
	return -1
}

func (s *sleeperNode) Round(round int, _ []congest.Incoming) ([]congest.Outgoing, bool) {
	s.woken = s.woken || round == s.at
	return nil, true
}

func TestWakeAfterQuiescenceEndsRun(t *testing.T) {
	// A pending wake-up alone keeps nothing alive: the run ends after
	// round 1, when the last message has landed, as under step-all.
	build := func(nw *congest.Network) []congest.Node {
		nodes := listeners(3)
		nodes[0] = &alarmNode{at: 0}
		nodes[2] = &sleeperNode{at: 30}
		return nodes
	}
	eng, _ := congesttest.Compare(t, pathGraph(), nil, build, 50)
	if eng.Err != "" || eng.Rounds != 2 {
		t.Fatalf("rounds %d err %q, want 2 rounds", eng.Rounds, eng.Err)
	}
	if eng.Nodes[2].(*sleeperNode).woken {
		t.Fatal("the sleeper was stepped after the run ended")
	}
}

func TestWakeSilentNodeHitsRoundLimit(t *testing.T) {
	build := func(nw *congest.Network) []congest.Node {
		nodes := listeners(3)
		nodes[2] = quietNode{}
		return nodes
	}
	for _, setup := range []congesttest.Setup{nil, explicit(chaos.Fault{Kind: chaos.Crash, Node: 0, Round: 3})} {
		eng, _ := congesttest.Compare(t, pathGraph(), setup, build, 17)
		nw := congest.New(pathGraph())
		_, err := nw.Run(build(nw), 17)
		if !errors.Is(err, congest.ErrRoundLimit) || eng.Rounds != 17 {
			t.Fatalf("rounds %d err %v, want ErrRoundLimit at round 17", eng.Rounds, err)
		}
	}
}
