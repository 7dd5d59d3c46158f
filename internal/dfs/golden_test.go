package dfs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"planardfs/internal/gen"
)

// goldenBuildHashes pins, per family, the SHA-256 of every Build output of
// the matrix in TestBuildGolden. A performance change to Build or anything
// it calls must leave every tree and every Trace count exactly as it was;
// a mismatch here names the family whose trees moved.
var goldenBuildHashes = map[string]string{
	"grid":        "6aa2d9f3dc2f6f4e29ab8dd843ecec30e357525d8904346c0d1c4349f1ab8778",
	"cylinderish": "4d45d66dd06c1626b9476467ef1ac96cd1e344515560d37d1d00201e85b07efc",
	"stacked":     "24fa2dd0dc5f7104497133ed7d549c292fcd883639e89f6fb09f7b1c1a77186b",
	"sparse":      "a27642d4847bc7b0a3d89fcde71dc180baf9ef5a3dde4c656e15011e5369be2d",
	"polygon":     "86740abb2db6028c8aa4858fc4a22a610809f2a5feaf243d61335da456bcc057",
	"cycle":       "69f10d10355cfc70746b10045284b62c3f9500dcae1d068bc5cb0d30deff1158",
	"wheel":       "03afaeb8da1a99dc39b347a1545616c8f0d00420d38506e25b0e0d7b1c04202b",
	"tree":        "49f2d811c669e20de2ca39af09a981c060115ad42ca6dfbd8c5bede73adcc417",
	"path":        "04cc2ccf0fcf0eb76ee8fddef928679e98c18fc62851e647c220a4b16f1592ec",
	"caterpillar": "c1c03357162bc90f92f3f5b5c89c8b159c2d138dd062d832edcb8f1b6a1579a4",
}

// TestBuildGolden runs Build over families × n ∈ {20, 137, 600, 2000} ×
// seeds 1–3 × roots {0, N/3, N/2, N−1} and hashes Parent, Phases,
// SeparatorCalls, JoinSubPhases and MaxComponent of each run.
func TestBuildGolden(t *testing.T) {
	families := []string{"grid", "cylinderish", "stacked", "sparse", "polygon", "cycle", "wheel", "tree", "path", "caterpillar"}
	for _, fam := range families {
		h := sha256.New()
		for _, n := range []int{20, 137, 600, 2000} {
			for seed := int64(1); seed <= 3; seed++ {
				in, err := gen.ByName(fam, n, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", fam, n, seed, err)
				}
				N := in.G.N()
				for _, root := range []int{0, N / 3, N / 2, N - 1} {
					pt, tr, err := Build(in.G, in.Emb, in.OuterDart, root)
					if err != nil {
						t.Fatalf("%s n=%d seed=%d root=%d: %v", fam, n, seed, root, err)
					}
					hashInts(h, pt.Parent)
					hashInts(h, []int{tr.Phases, tr.SeparatorCalls, tr.JoinSubPhases})
					hashInts(h, tr.MaxComponent)
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := goldenBuildHashes[fam]; got != want {
			t.Errorf("%s: Build golden hash %s, want %s", fam, got, want)
		}
	}
}

// hashInts writes a length-prefixed little-endian encoding of xs to h.
func hashInts(h hash.Hash, xs []int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(xs)))
	h.Write(buf[:])
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
}
