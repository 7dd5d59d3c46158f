// Package congesttest holds test helpers for the CONGEST simulator. Its
// Reference loop is the oracle the engine-identity tests compare
// congest.Network.Run against; only test files import this package.
package congesttest

import (
	"fmt"

	"planardfs/internal/congest"
	"planardfs/internal/trace"
)

// arc is one potential delivery into a receiver: the sender, the port it
// sends on, and the port the message arrives on.
type arc struct{ src, srcPort, dstPort int }

// Reference runs nodes over nw.G with the naive step-all schedule: every
// round it steps every node in ascending order, then delivers receiver by
// receiver, each inbox in ascending (sender, sender port) order, released
// stalled messages last. It honours nw.MaxWords, nw.Tracer and nw.Injector
// as Network.Run does and returns what Network.Run must return on the same
// inputs — the rounds run, the run's Stats and the error — while sharing no
// code with the engine. It costs O(n + m) per round: keep inputs small.
func Reference(nw *congest.Network, nodes []congest.Node, maxRounds int) (int, congest.Stats, error) {
	g := nw.G
	n := g.N()
	var st congest.Stats
	if len(nodes) != n {
		return 0, st, fmt.Errorf("congest: %d nodes for %d vertices", len(nodes), n)
	}
	if maxRounds <= 0 {
		return 0, st, fmt.Errorf("%w (got %d)", congest.ErrInvalidRoundLimit, maxRounds)
	}
	maxWords := nw.MaxWords
	if maxWords <= 0 {
		maxWords = 4
	}
	inj := nw.Injector
	tr := trace.OrNop(nw.Tracer)
	traced := tr.Enabled()

	// portOf[{v, id}] is the port of edge id at vertex v.
	portOf := make(map[[2]int]int)
	for v := 0; v < n; v++ {
		for p, id := range g.IncidentEdges(v) {
			portOf[[2]int{v, int(id)}] = p
		}
	}
	into := make([][]arc, n)
	for u := 0; u < n; u++ {
		for up, id := range g.IncidentEdges(u) {
			w := g.EdgeByID(int(id)).Other(u)
			into[w] = append(into[w], arc{u, up, portOf[[2]int{w, int(id)}]})
		}
	}
	edgeLoad := make([]int64, g.M())

	inbox := make([][]congest.Incoming, n)
	done := make([]bool, n)
	for r := 0; ; r++ {
		if r >= maxRounds {
			return r, st, &congest.RoundLimitError{Limit: maxRounds}
		}
		// sent[v][p] is the message v sends on port p this round, or nil.
		sent := make([][]*congest.Message, n)
		for v := 0; v < n; v++ {
			sent[v] = make([]*congest.Message, g.Degree(v))
			if inj != nil && inj.Crashed(r, v) {
				done[v] = true
				continue
			}
			out, d := nodes[v].Round(r, inbox[v])
			for _, o := range out {
				perr := &congest.ProtocolError{Round: r, Vertex: v, Port: o.Port}
				switch {
				case o.Port < 0 || o.Port >= len(sent[v]):
					perr.Kind = congest.ErrInvalidPort
				case sent[v][o.Port] != nil:
					perr.Kind = congest.ErrDuplicateSend
				case o.Msg.Words() > maxWords:
					perr.Kind, perr.Words, perr.Limit = congest.ErrMessageTooLarge, o.Msg.Words(), maxWords
				default:
					msg := o.Msg
					sent[v][o.Port] = &msg
					continue
				}
				return r, st, perr
			}
			done[v] = d
		}

		var msgs, words, cong int64
		next := make([][]congest.Incoming, n)
		for w := 0; w < n; w++ {
			for _, a := range into[w] {
				m := sent[a.src][a.srcPort]
				if m == nil {
					continue
				}
				msg := *m
				if inj != nil {
					var fate congest.DeliveryFate
					if msg, fate = inj.Deliver(r, a.src, a.srcPort, w, a.dstPort, msg); fate != congest.FateDeliver {
						continue
					}
				}
				next[w] = append(next[w], congest.Incoming{Port: a.dstPort, Msg: msg})
				msgs++
				words += int64(msg.Words())
				edgeLoad[g.IncidentEdges(w)[a.dstPort]]++
				// Both directions of the edge carry a message this round
				// when w sent on the arrival port too.
				if sent[w][a.dstPort] != nil {
					cong = 2
				} else {
					cong = max(cong, 1)
				}
			}
			if inj != nil {
				k := len(next[w])
				next[w] = inj.Released(r, w, next[w])
				for _, in := range next[w][k:] {
					msgs++
					words += int64(in.Msg.Words())
					edgeLoad[g.IncidentEdges(w)[in.Port]]++
				}
			}
		}
		inbox = next

		st.Rounds = r + 1
		st.Messages += msgs
		st.Words += words
		st.MaxEdgeCongestion = max(st.MaxEdgeCongestion, cong)
		st.MaxRoundWords = max(st.MaxRoundWords, words)
		st.RoundMessages = append(st.RoundMessages, msgs)
		if traced {
			sp := tr.StartSpan(trace.LayerNetwork, "round")
			sp.SetAttr("msgs", msgs)
			sp.SetAttr("words", words)
			tr.Advance(1)
			sp.End()
			tr.Count("congest.rounds", 1)
			tr.Count("congest.messages", msgs)
			tr.Count("congest.words", words)
			tr.Observe("congest.msgs_per_round", msgs)
			tr.Sample("congest.msgs_per_round", msgs)
		}

		allDone := true
		for _, d := range done {
			allDone = allDone && d
		}
		if msgs == 0 && allDone && (inj == nil || !inj.Pending()) {
			break
		}
	}

	for _, l := range edgeLoad {
		st.MaxEdgeLoad = max(st.MaxEdgeLoad, l)
	}
	if traced {
		for _, l := range edgeLoad {
			tr.Observe("congest.edge_load", l)
		}
		tr.SetGauge("congest.max_edge_congestion", st.MaxEdgeCongestion)
		tr.SetGauge("congest.max_edge_load", st.MaxEdgeLoad)
	}
	return st.Rounds, st, nil
}
