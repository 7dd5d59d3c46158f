package congest

import (
	"testing"

	"planardfs/internal/graph"
)

// saturatorNode sends one preallocated message on every port each round and
// never halts, so every vertex is active in every round.
type saturatorNode struct {
	out []Outgoing
}

func (c *saturatorNode) Round(round int, recv []Incoming) ([]Outgoing, bool) {
	return c.out, false
}

// wakingSaturatorNode is a saturatorNode that also books a wake-up two
// rounds ahead after every step, so each round opens a new wake-up bucket
// and retires the one due.
type wakingSaturatorNode struct {
	saturatorNode
}

func (c *wakingSaturatorNode) WakeAt(round int) int { return round + 2 }

// TestRoundLoopZeroAlloc is the runtime gate behind the
// //planarvet:noalloc annotations on the event loop — (*engine).stepRound,
// step, deliverRound and advance: once the inboxes, active sets and
// wake-up buckets have ramped up to their steady-state capacity, a full
// round performs zero allocations even with every edge saturated in both
// directions, with and without a wake-up booked by every vertex each round.
func TestRoundLoopZeroAlloc(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	g.MustAddEdge(0, 2)

	for _, waking := range []bool{false, true} {
		nw := New(g)
		nodes := make([]Node, g.N())
		for v := range nodes {
			out := make([]Outgoing, g.Degree(v))
			for p := range out {
				out[p] = Outgoing{Port: p, Msg: Message{Kind: 7}}
			}
			if waking {
				nodes[v] = &wakingSaturatorNode{saturatorNode{out: out}}
			} else {
				nodes[v] = &saturatorNode{out: out}
			}
		}

		e := newEngine(nw, nodes)
		for v := 0; v < e.n; v++ {
			e.active = append(e.active, int32(v))
		}
		oneRound := func() {
			if err := e.stepRound(); err != nil {
				t.Fatal(err)
			}
			e.deliverRound()
			e.advance()
			e.round++
		}
		// Warm-up rounds grow the inboxes, both active-set buffers and the
		// wake-up buckets in flight to steady-state capacity.
		for range 4 {
			oneRound()
		}

		allocs := testing.AllocsPerRun(100, oneRound)
		if allocs != 0 {
			t.Fatalf("waking=%v: steady-state round allocates %.1f times, want 0", waking, allocs)
		}
		if len(e.active) != e.n {
			t.Fatalf("waking=%v: %d vertices active, want all %d", waking, len(e.active), e.n)
		}
		if waking && len(e.wakes) == 0 {
			t.Fatalf("no wake-up bucket pending: the waking program booked none")
		}
		for v := 0; v < e.n; v++ {
			if got, want := len(e.inbox[v]), g.Degree(v); got != want {
				t.Fatalf("waking=%v: vertex %d received %d messages, want %d", waking, v, got, want)
			}
		}
	}
}
