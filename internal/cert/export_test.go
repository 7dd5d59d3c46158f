package cert

import (
	"planardfs/internal/congest"
	"planardfs/internal/graph"
)

// ExchangeRounds is the label exchange's round budget.
const ExchangeRounds = exchangeRounds

// SeparatorExchangeNodes returns the verifier programs VerifySeparator runs
// on labels, for the engine-identity tests.
func SeparatorExchangeNodes(g *graph.Graph, labels [][]int) []congest.Node {
	n := g.N()
	return exchangeNodes(g, labels, func(v int, got [][]int) bool {
		return sepJudge(v, n, g.Neighbors(v), labels[v], got)
	})
}

// ExchangeVerdicts reads the judged and accept bits of exchange programs.
func ExchangeVerdicts(nodes []congest.Node) (judged, accept []bool) {
	for _, nd := range nodes {
		cn := nd.(*certNode)
		judged = append(judged, cn.judged)
		accept = append(accept, cn.accept)
	}
	return judged, accept
}
