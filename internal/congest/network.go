// Package congest simulates the synchronous CONGEST model: a network of
// nodes, one per graph vertex, exchanging O(log n)-bit messages over graph
// edges in lockstep rounds.
//
// The engine runs one event-driven schedule. Round 0 steps every node;
// after that a round steps only the nodes that received a message, sent
// one in the previous round, or are due a wake-up: a round-clocked
// program's own (Waker), or an Injector's crash or stall release. Under
// the Node contract this is identical to stepping every node every round —
// same rounds, Stats, outputs and traces — while a run costs
// O(messages + wake-ups) node steps instead of O(n × rounds).
//
// Bandwidth is enforced: per round, at most one message may cross each edge
// in each direction, and each message carries at most MaxWords words, a word
// being ceil(log2 n) bits. Violations abort the run with an error rather
// than silently under-counting rounds.
//
// The round loop is allocation-free in the steady state. All engine state —
// the epoch-stamped port arrays, the routing table, the inboxes, the active
// sets — is allocated once per Run; see DESIGN.md §8 for the internals.
package congest

import (
	"errors"
	"fmt"
	"slices"

	"planardfs/internal/graph"
	"planardfs/internal/trace"
)

// Message is a CONGEST message: a program-defined kind tag plus up to
// MaxWords-1 word-sized arguments (the kind counts as one word).
type Message struct {
	Kind int
	Args []int
}

// Words returns the bandwidth cost of the message in words.
func (m Message) Words() int { return 1 + len(m.Args) }

// Incoming is a received message together with the port it arrived on.
type Incoming struct {
	Port int
	Msg  Message
}

// Outgoing is a message to send on a port of the sending node.
type Outgoing struct {
	Port int
	Msg  Message
}

// Node is a per-vertex CONGEST program. Round is called with the messages
// delivered this round (sent by neighbours in the previous round); it
// returns the messages to send and whether the node has halted. The
// network stops when every node reports done in a round with no messages
// delivered.
//
// The engine calls Round for every node at round 0, and after that only in
// rounds where the node has messages to read, sent messages in the previous
// round, or is due a wake-up. A program must behave as if it were called
// every round: a call with an empty inbox in any other round must send
// nothing and change neither its state nor its done report. The engine may
// make such calls (an injector's wake-ups do), so they must be harmless.
// A program that acts on the round number alone implements Waker.
//
// The recv slice is owned by the engine and recycled across rounds; a node
// that retains messages beyond the current Round call must copy them.
type Node interface {
	Round(round int, recv []Incoming) (send []Outgoing, done bool)
}

// Waker is implemented by round-clocked programs, which act at fixed
// rounds without a message to prompt them. After every call of
// Round(round, …) the engine asks WakeAt(round) for the first later round
// at which the node must be stepped even with an empty inbox; -1 means
// none. A wake-up alone never keeps a run alive: the run still ends when
// every node is done and no message was delivered.
type Waker interface {
	Node
	WakeAt(round int) int
}

// NodeInfo is the local knowledge every CONGEST node starts with: its own
// identifier, and the identifier at the far end of each incident port.
type NodeInfo struct {
	ID        int
	Neighbors []int // Neighbors[port] is the neighbour's vertex ID.
	N         int   // number of nodes in the network (known bound)
}

// Stats aggregates instrumentation for a run.
type Stats struct {
	Rounds        int
	Messages      int64
	Words         int64
	MaxEdgeLoad   int64 // max messages carried by a single edge over the run
	MaxRoundWords int64 // max words sent network-wide in one round
	// MaxEdgeCongestion is the most messages a single edge carried in a
	// single round (at most 2: one per direction under the bandwidth rule).
	MaxEdgeCongestion int64
	// RoundMessages[i] is the number of messages delivered in round i; it
	// feeds the per-round message histogram of the tracing subsystem.
	RoundMessages []int64
}

// Network simulates a CONGEST network over a graph.
type Network struct {
	G *graph.Graph
	// MaxWords bounds the size of a single message in words
	// (1 word = ceil(log2 n) bits). Default 4.
	MaxWords int
	// Tracer receives per-round spans and message/congestion metrics; nil
	// (or trace.Nop) disables instrumentation at zero cost.
	Tracer trace.Tracer
	// Injector intercepts the run at the fault-injection points (crash
	// checks when a node steps, per-message rulings on delivery); nil
	// disables injection with no hook overhead. See inject.go for the
	// contract.
	Injector Injector

	stats Stats
}

// New returns a network over g with default settings (4-word messages).
func New(g *graph.Graph) *Network {
	return &Network{G: g, MaxWords: 4}
}

// Stats returns instrumentation from the last Run. The RoundMessages slice
// is a defensive copy: mutating the returned slice cannot corrupt — or be
// corrupted by — the engine's internal histogram.
func (nw *Network) Stats() Stats {
	st := nw.stats
	if st.RoundMessages != nil {
		st.RoundMessages = append([]int64(nil), st.RoundMessages...)
	}
	return st
}

// Info returns the initial local knowledge of vertex v.
func (nw *Network) Info(v int) NodeInfo {
	return NodeInfo{ID: v, Neighbors: nw.G.Neighbors(v), N: nw.G.N()}
}

// ErrRoundLimit is returned when a run exceeds its round budget.
var ErrRoundLimit = errors.New("congest: round limit exceeded")

// ErrInvalidRoundLimit is returned when Run is called with a non-positive
// round budget, before any node steps.
var ErrInvalidRoundLimit = errors.New("congest: round limit must be positive")

// Run executes the nodes until global termination (all nodes done, no
// message delivered in the last round and, under an injector, no stalled
// message pending) or until maxRounds rounds have elapsed. It returns the
// number of rounds executed. maxRounds must be positive.
func (nw *Network) Run(nodes []Node, maxRounds int) (int, error) {
	n := nw.G.N()
	if len(nodes) != n {
		return 0, fmt.Errorf("congest: %d nodes for %d vertices", len(nodes), n)
	}
	if maxRounds <= 0 {
		return 0, fmt.Errorf("%w (got %d)", ErrInvalidRoundLimit, maxRounds)
	}
	nw.stats = Stats{}
	return newEngine(nw, nodes).run(maxRounds)
}

// engine is the per-Run state of the round loop. Every slice is allocated
// once here; the steady-state loop allocates nothing (the only amortized
// growth is the RoundMessages histogram and the capacity ramp-up of the
// inboxes, the active sets and the wake-up buckets, whose backing arrays
// are recycled once their round has passed).
type engine struct {
	nw       *Network
	nodes    []Node
	wakers   []Waker // wakers[v] is nodes[v] as a Waker, nil if it is not one
	n        int
	maxWords int
	inj      Injector // nil when no faults are injected

	// Flat per-(vertex,port) state: port p of vertex v lives at flat index
	// off[v]+p; off has length n+1, so off[v+1]-off[v] is the degree of v.
	off       []int
	portEpoch []int   // last round v sent on the port (-1 = never)
	portMsg   []int32 // index into outboxes[v] of that round's message
	portLoad  []int64 // messages delivered into the port over the run
	peer      []int32 // vertex at the far end of the port
	rport     []int32 // that vertex's port for the same edge

	// inbox[v] collects the messages delivered in this round's delivery
	// phase; v reads it when it steps next round, which empties it.
	inbox    [][]Incoming
	outboxes [][]Outgoing
	dones    []bool
	notDone  int

	round   int
	stamp   []int   // round in whose delivery phase v was queued (-1 = never)
	active  []int32 // vertices stepped this round, ascending
	next    []int32 // vertices queued for next round
	senders []int32 // vertices that sent this round, ascending

	// Wake-ups: wakeAt[v] is v's pending wake-up round (-1 = none) and
	// wakes[r] lists the vertices due at round r. A bucket entry whose
	// vertex has since been rescheduled is stale and skipped. spare holds
	// the emptied buckets of past rounds for reuse by new ones.
	wakeAt []int
	wakes  map[int][]int32
	spare  [][]int32
}

func newEngine(nw *Network, nodes []Node) *engine {
	g := nw.G
	n := g.N()
	maxWords := nw.MaxWords
	if maxWords <= 0 {
		maxWords = 4
	}
	e := &engine{nw: nw, nodes: nodes, n: n, maxWords: maxWords, inj: nw.Injector, notDone: n}

	e.off = make([]int, n+1)
	for v := 0; v < n; v++ {
		e.off[v+1] = e.off[v] + g.Degree(v)
	}
	ports := e.off[n]
	e.portEpoch = make([]int, ports)
	for i := range e.portEpoch {
		e.portEpoch[i] = -1
	}
	e.portMsg = make([]int32, ports)
	e.portLoad = make([]int64, ports)

	// Routing: each edge's port at its two endpoints, then every port's far
	// end. Senders push along these, so delivery never scans idle ports.
	portAt := make([]int32, 2*g.M()) // [2id] at endpoint U, [2id+1] at V
	for v := 0; v < n; v++ {
		for p, id := range g.IncidentEdges(v) {
			if u, _ := g.EndpointsOf(int(id)); u == int32(v) {
				portAt[2*id] = int32(p)
			} else {
				portAt[2*id+1] = int32(p)
			}
		}
	}
	e.peer = make([]int32, ports)
	e.rport = make([]int32, ports)
	for v := 0; v < n; v++ {
		for p, id := range g.IncidentEdges(v) {
			u, w := g.EndpointsOf(int(id))
			fp := e.off[v] + p
			if u == int32(v) {
				e.peer[fp], e.rport[fp] = w, portAt[2*id+1]
			} else {
				e.peer[fp], e.rport[fp] = u, portAt[2*id]
			}
		}
	}

	e.inbox = make([][]Incoming, n)
	e.outboxes = make([][]Outgoing, n)
	e.dones = make([]bool, n)
	e.wakers = make([]Waker, n)
	for v, nd := range nodes {
		e.wakers[v], _ = nd.(Waker)
	}
	e.stamp = make([]int, n)
	e.wakeAt = make([]int, n)
	for v := 0; v < n; v++ {
		e.stamp[v] = -1
		e.wakeAt[v] = -1
	}
	e.active = make([]int32, 0, n)
	e.next = make([]int32, 0, n)
	e.senders = make([]int32, 0, n)
	e.wakes = make(map[int][]int32)
	return e
}

func (e *engine) run(maxRounds int) (int, error) {
	tr := trace.OrNop(e.nw.Tracer)
	traced := tr.Enabled()
	for v := 0; v < e.n; v++ {
		e.active = append(e.active, int32(v))
	}
	for e.round = 0; ; e.round++ {
		if e.round >= maxRounds {
			return e.round, &RoundLimitError{Limit: maxRounds}
		}
		if err := e.stepRound(); err != nil {
			return e.round, err
		}
		msgs, words, cong := e.deliverRound()
		e.accountRound(msgs, words, cong, tr, traced)
		if msgs == 0 && e.notDone == 0 && (e.inj == nil || !e.inj.Pending()) {
			break
		}
		e.advance()
	}
	return e.finishRun(tr, traced)
}

// stepRound steps the active vertices in ascending order, so the first
// protocol error by vertex order ends the run, and records the senders.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) stepRound() error {
	e.senders = e.senders[:0]
	for _, v32 := range e.active {
		v := int(v32)
		if err := e.step(v); err != nil {
			return err
		}
		e.inbox[v] = e.inbox[v][:0]
		if len(e.outboxes[v]) > 0 {
			e.senders = append(e.senders, v32) //planarvet:allocok amortized: capacity n is allocated by newEngine
		}
		if e.wakers[v] != nil || e.inj != nil {
			e.schedule(v, e.wakeAfter(v))
		}
	}
	return nil
}

// step advances one node and validates its sends. A valid send stamps the
// sender-side port with the current round and records the outbox index, so
// delivery can find pending messages without touching edge tables. The
// only constructions are the protocol-error values on the abort path.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) step(v int) error {
	if e.inj != nil && e.inj.Crashed(e.round, v) {
		// Crash-stop: the program is not called, nothing is sent, and the
		// vertex counts as done.
		e.outboxes[v] = nil
		e.setDone(v, true)
		return nil
	}
	send, done := e.nodes[v].Round(e.round, e.inbox[v])
	base := e.off[v]
	deg := e.off[v+1] - base
	for i, out := range send {
		if out.Port < 0 || out.Port >= deg {
			return &ProtocolError{Kind: ErrInvalidPort, Round: e.round, Vertex: v, Port: out.Port} //planarvet:allocok abort path: a protocol violation ends the run, the steady state never reaches it
		}
		fp := base + out.Port
		if e.portEpoch[fp] == e.round {
			return &ProtocolError{Kind: ErrDuplicateSend, Round: e.round, Vertex: v, Port: out.Port} //planarvet:allocok abort path: a protocol violation ends the run, the steady state never reaches it
		}
		if out.Msg.Words() > e.maxWords {
			//planarvet:allocok abort path: a protocol violation ends the run, the steady state never reaches it
			return &ProtocolError{Kind: ErrMessageTooLarge, Round: e.round, Vertex: v, Port: out.Port,
				Words: out.Msg.Words(), Limit: e.maxWords}
		}
		e.portEpoch[fp] = e.round
		e.portMsg[fp] = int32(i)
	}
	e.outboxes[v] = send
	e.setDone(v, done)
	return nil
}

func (e *engine) setDone(v int, done bool) {
	if e.dones[v] == done {
		return
	}
	e.dones[v] = done
	if done {
		e.notDone--
	} else {
		e.notDone++
	}
}

// deliverRound pushes each sender's stamped ports to their peers. Senders
// are visited in ascending order, so every inbox is laid out in ascending
// (sender, sender port) order, and the injector sees each receiver's
// messages in that order too. Released stalled messages land after the
// round's regular deliveries. Every receiver, every sender and every
// vertex with a released message is queued for next round.
//
// Per-round edge congestion needs no per-edge bookkeeping: an edge carries
// two messages in a round exactly when the receiver of one direction also
// sent on the same port, which is one epoch-stamp comparison.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) deliverRound() (msgs, words, cong int64) {
	round := e.round
	e.next = e.next[:0]
	for _, u32 := range e.senders {
		u := int(u32)
		e.queue(u)
		base := e.off[u]
		for fp := base; fp < e.off[u+1]; fp++ {
			if e.portEpoch[fp] != round {
				continue
			}
			w := int(e.peer[fp])
			rp := int(e.rport[fp])
			msg := e.outboxes[u][e.portMsg[fp]].Msg
			if e.inj != nil {
				m, fate := e.inj.Deliver(round, u, fp-base, w, rp, msg)
				if fate == FateStall {
					e.schedule(w, e.inj.WakeAt(round, w))
				}
				if fate != FateDeliver {
					continue // dropped or stalled: not delivered this round
				}
				msg = m
			}
			e.inbox[w] = append(e.inbox[w], Incoming{Port: rp, Msg: msg}) //planarvet:allocok amortized: inbox backing is recycled every round, capacity ramps up once then stabilises
			e.queue(w)
			msgs++
			words += int64(msg.Words())
			wp := e.off[w] + rp
			e.portLoad[wp]++
			if e.portEpoch[wp] == round {
				cong = 2
			} else if cong < 1 {
				cong = 1
			}
		}
	}
	if e.inj != nil {
		// Every release round is a wake-up of the receiver, so the active
		// set covers every vertex with a message due this round.
		for _, v32 := range e.active {
			v := int(v32)
			prev := len(e.inbox[v])
			e.inbox[v] = e.inj.Released(round, v, e.inbox[v])
			for _, in := range e.inbox[v][prev:] {
				msgs++
				words += int64(in.Msg.Words())
				e.portLoad[e.off[v]+in.Port]++
			}
			if len(e.inbox[v]) > prev {
				e.queue(v)
			}
		}
	}
	return msgs, words, cong
}

// queue adds v to next round's active set once.
func (e *engine) queue(v int) {
	if e.stamp[v] != e.round {
		e.stamp[v] = e.round
		e.next = append(e.next, int32(v)) //planarvet:allocok amortized: capacity n is allocated by newEngine
	}
}

// wakeAfter is v's next wake-up after this round: the earlier of its
// program's and the injector's, -1 if neither has one.
func (e *engine) wakeAfter(v int) int {
	r := -1
	if w := e.wakers[v]; w != nil {
		r = w.WakeAt(e.round)
	}
	if e.inj != nil {
		if ir := e.inj.WakeAt(e.round, v); ir >= 0 && (r < 0 || ir < r) {
			r = ir
		}
	}
	return r
}

// schedule books a wake-up of v at round r unless an earlier one is
// already pending: that one re-asks the sources, which report r again.
func (e *engine) schedule(v, r int) {
	if r <= e.round {
		return
	}
	if p := e.wakeAt[v]; p > e.round && p <= r {
		return
	}
	e.wakeAt[v] = r
	b, ok := e.wakes[r]
	if !ok && len(e.spare) > 0 {
		b = e.spare[len(e.spare)-1]
		e.spare = e.spare[:len(e.spare)-1]
	}
	e.wakes[r] = append(b, int32(v)) //planarvet:allocok amortized: emptied buckets are recycled through spare
}

// advance moves to the next round: it adds the vertices due a wake-up to
// the queued ones and makes them the active set, in ascending order.
//
//planarvet:noalloc TestRoundLoopZeroAlloc
func (e *engine) advance() {
	r := e.round + 1
	if due, ok := e.wakes[r]; ok {
		for _, v32 := range due {
			if e.wakeAt[v32] == r {
				e.queue(int(v32))
			}
		}
		delete(e.wakes, r)
		e.spare = append(e.spare, due[:0]) //planarvet:allocok amortized: bounded by the buckets pending at once
	}
	slices.Sort(e.next)
	e.active, e.next = e.next, e.active
}

// accountRound folds one round's delivery totals into the run statistics
// and emits the per-round trace span.
func (e *engine) accountRound(roundMsgs, roundWords, roundCong int64, tr trace.Tracer, traced bool) {
	nw := e.nw
	nw.stats.Messages += roundMsgs
	nw.stats.Words += roundWords
	if roundCong > nw.stats.MaxEdgeCongestion {
		nw.stats.MaxEdgeCongestion = roundCong
	}
	if roundWords > nw.stats.MaxRoundWords {
		nw.stats.MaxRoundWords = roundWords
	}
	nw.stats.RoundMessages = append(nw.stats.RoundMessages, roundMsgs)
	nw.stats.Rounds = e.round + 1
	if traced {
		sp := tr.StartSpan(trace.LayerNetwork, "round")
		sp.SetAttr("msgs", roundMsgs)
		sp.SetAttr("words", roundWords)
		tr.Advance(1)
		sp.End()
		tr.Count("congest.rounds", 1)
		tr.Count("congest.messages", roundMsgs)
		tr.Count("congest.words", roundWords)
		tr.Observe("congest.msgs_per_round", roundMsgs)
		tr.Sample("congest.msgs_per_round", roundMsgs)
	}
}

// finishRun folds the per-port delivery counts into per-edge loads (each
// edge is the sum of its two directions) and emits the end-of-run gauges.
func (e *engine) finishRun(tr trace.Tracer, traced bool) (int, error) {
	nw := e.nw
	g := nw.G
	edgeLoad := make([]int64, g.M())
	for v := 0; v < e.n; v++ {
		for p, id := range g.IncidentEdges(v) {
			edgeLoad[id] += e.portLoad[e.off[v]+p]
		}
	}
	for _, l := range edgeLoad {
		if l > nw.stats.MaxEdgeLoad {
			nw.stats.MaxEdgeLoad = l
		}
	}
	if traced {
		for _, l := range edgeLoad {
			tr.Observe("congest.edge_load", l)
		}
		tr.SetGauge("congest.max_edge_congestion", nw.stats.MaxEdgeCongestion)
		tr.SetGauge("congest.max_edge_load", nw.stats.MaxEdgeLoad)
	}
	return nw.stats.Rounds, nil
}
