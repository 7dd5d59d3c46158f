package separator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"planardfs/internal/gen"
)

// goldenFindHashes pins, per family, the SHA-256 of every Find output of
// the matrix in TestFindGolden. It covers the whole-graph separator and the
// DFS-tree configurations, which the dfs golden test does not reach; a
// performance change to Find or anything it calls must leave every
// separator exactly as it was.
var goldenFindHashes = map[string]string{
	"grid":        "551cdc0a1d83c8c999919b6732af5fd78ff9b850664f2e252efeba6fcac27c6b",
	"cylinderish": "94bf77bfb9616f2e42a35d05e032a7baf43f4413ff540daf3e6e8ce1a9885c26",
	"stacked":     "5360fa9089ce0215183b962d3c7328c4b46f79ef6140d9cab56759306f5bde9c",
	"sparse":      "ef74f20c667b68d957fdb535041d3e36f3c7ffbd09956ae79b94e5d1d5710cbd",
	"polygon":     "42bca7b9f3a0dbdf452d87b071b0aeaa9d2fcc98bd1f9cadbbb2d5800eafed68",
	"cycle":       "bd8d3efc50bed648ee035d51bf3f26d50b919d999200d7dbfcdccf1ff6180b7d",
	"wheel":       "16347a9a9706a44738a6ecc452aa3bac006b5d3cd0d381c29b1739b54791c741",
	"fan":         "97a5e39441ccfd26e85a21890d8f9c0d61f461dab4d9192f2bcbaaf245f6dc3f",
	"tree":        "00a0107e579d0602ecdca0f93715ed298ce6d2075a5cedbb629ffe967826674d",
	"path":        "5cbacffacde1c50dd95d9a06cddc48da813d0c7c4ba00556b727138f8d7bcebf",
	"caterpillar": "6039de543c2fa5b7858c622976e81d3640534c0755dd7b73ab664da4f362539e",
}

// TestFindGolden runs Find over gen.Families × n ∈ {20, 137, 600} × seeds
// 1–3 × three outer-face roots × {BFS, DeepDFS} trees and hashes Path,
// EndA, EndB and Phase of each result. DeepDFS trees almost always stop at
// Lemma 1's long-path shortcut, so each DeepDFS tree also runs with
// DisableLongPath, which sends it through phases 4 and 5 with
// ancestor-type fundamental edges.
func TestFindGolden(t *testing.T) {
	for _, fam := range gen.Families {
		h := sha256.New()
		for _, n := range []int{20, 137, 600} {
			for seed := int64(1); seed <= 3; seed++ {
				in, err := gen.ByName(fam, n, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", fam, n, seed, err)
				}
				outer := in.Emb.TraceFaces().FaceVertices(in.OuterFace())
				k := len(outer)
				for _, root := range []int{outer[0], outer[k/3], outer[2*k/3]} {
					for _, run := range []struct {
						kind       string
						noLongPath bool
					}{{"bfs", false}, {"dfs", false}, {"dfs", true}} {
						cfg := rootedConfig(t, in, run.kind, root, nil)
						sep, err := FindWithOptions(cfg, Options{DisableLongPath: run.noLongPath})
						if err != nil {
							t.Fatalf("%s n=%d seed=%d root=%d %+v: %v", fam, n, seed, root, run, err)
						}
						hashInts(h, sep.Path)
						hashInts(h, []int{sep.EndA, sep.EndB, int(sep.Phase)})
					}
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := goldenFindHashes[fam]; got != want {
			t.Errorf("%s: Find golden hash %s, want %s", fam, got, want)
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
