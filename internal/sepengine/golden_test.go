package sepengine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"testing"

	"planardfs/internal/exp"
	"planardfs/internal/gen"
	"planardfs/internal/sepengine"
	"planardfs/internal/spanning"
	"planardfs/internal/weights"
)

// goldenEngineHashes pins, per engine/family pair, the SHA-256 of every
// engine outcome of the matrix in TestEngineGolden. A change to the
// registry, the candidate framework or the validation layer must leave
// every separator, charged cost and soft failure exactly as it was.
var goldenEngineHashes = map[string]string{
	"dual-tree-bfs/grid":            "c5fb06fcdb42721d68454d90cca7d852649e840c3086af280673e0496f09c078",
	"dual-tree-bfs/cylinderish":     "f84db05e57f451b22078f5abd651837ba6869fe9bad678ef1a4c18ea805fa3fc",
	"dual-tree-bfs/stacked":         "c0ea7f8f4121744e2eeae38f25771b604b07bcd9a792ec55d35b542f3a394285",
	"dual-tree-bfs/sparse":          "e798e8b4591fe935dba7286cbc70046de81d28155469b7850441b3a54ffa8ecd",
	"dual-tree-bfs/polygon":         "d3ad6cca64265364d908ff4fccf85a0f7aa5e8e528159bbd8a5d61a2730722e1",
	"dual-tree-bfs/cycle":           "fb4711680778cb359fadd93838535a2f99a13170edeae610c014e9057ca55c86",
	"dual-tree-bfs/wheel":           "1aa5a0b816edad93072ef1d38a86a1b1a8837cc350f608c666de7d6ccba1b320",
	"dual-tree-bfs/fan":             "b87e6291af8adef13733968c0c42d6715982665bda9e8a434629f35cf29943ee",
	"dual-tree-bfs/tree":            "e421dcfab55e0b165b9edd28d946d79b5a47ac9104c64a9e93ba155f70c320c0",
	"dual-tree-bfs/path":            "5a254597430048a2a4a6bbdf6f555d7942aa0044f4c9abb6565acfa10f1433a6",
	"dual-tree-bfs/caterpillar":     "33c91381c4a6c6dc86432b43cd25c0b4a9002162235f1cc96657f29770c190fd",
	"har-peled-nayyeri/grid":        "395161dbd194126d67a5aab31ac1a71f20b1c1a19eea85c9de6d8205451f8366",
	"har-peled-nayyeri/cylinderish": "6b277d54c5f7d8e3473d978b8d3e75a48d6b6937ea922b4b019142551ff3fb67",
	"har-peled-nayyeri/stacked":     "77aa643a495641dbdc65499c40a4bc15472e17c5b6a51977aa75722b0f944478",
	"har-peled-nayyeri/sparse":      "1fcf3e6a9d4d1bcbb265fbc7571a1183c3cb33e12451f8d8b16218881a9f16c9",
	"har-peled-nayyeri/polygon":     "4e0395d8b79d136531fbfa6e4c0fa10e23ace42cb8908f0b9a43f7afeb524c0e",
	"har-peled-nayyeri/cycle":       "e9fee244790aa93ba78007d2b298cd6502883a8fd9235795e763f69a15cf6667",
	"har-peled-nayyeri/wheel":       "531016013de15d2d37153aef2475a9898e186174df2025f4528d3f6c06987650",
	"har-peled-nayyeri/fan":         "73d6a0864e841d5e86de8555cc6b671f20d7a55ca609ca40b674ab3616e4ca77",
	"har-peled-nayyeri/tree":        "956d204a0917f0ff9f5ef2498cfc932bb159324652db500c0d173212df52750d",
	"har-peled-nayyeri/path":        "e7368580af5a9c77cf11eb1892cba3950d36cd3f81183f448812d788f8940e31",
	"har-peled-nayyeri/caterpillar": "be654a9948d34462c79532d8af84d58f07234a871db06eae1f4fc97c5e21d91a",
	"theorem1/grid":                 "c00da343270a1f769e9b56bb431607eeb59e04a7589129eac5497620c6830efb",
	"theorem1/cylinderish":          "db6065013493a7de218ceb4bcdbaaf5b4656c7fb8eba76b13a71fcaee7cf3a82",
	"theorem1/stacked":              "54147e0ec497400ab74cdfca3d12777870d14c72c677087c8e6112d972c8826f",
	"theorem1/sparse":               "426e1cae8764b44d176bdd41449b2f9c693fe3460441f0c332e8f56946e080ec",
	"theorem1/polygon":              "d5c56e6f70438cb000344bac284a08397fad12486d08320203aa43d42ebe42e3",
	"theorem1/cycle":                "8c577dbcfb8aa738ac4f86c8f841d3ca50f15f7b82b34c45c68d136a11dc9fe3",
	"theorem1/wheel":                "9b84c09b10ded886fc81fbaa909c2aa0b5ba537d9bec1c9a8b4f94e7270a8a9e",
	"theorem1/fan":                  "2da875a6a99c6c59954c8fd75588227ff6777b7eebcfb51f4cf95f61ca1566ed",
	"theorem1/tree":                 "da270f28f0121b9418e48f06ca6eb41c6840bfa04adc0212f427ca52dff9e9ba",
	"theorem1/path":                 "90144ad21659c04dd69792bdce8e75bf1f092f1538886b9ec90c5c967f68022b",
	"theorem1/caterpillar":          "eefb6695cb9fa21fd152656e9facd5cb0dd08cf9f7ae379d3ce19c0ccfa5f96c",
}

// TestEngineGolden runs every engine over gen.Families × n ∈ {64, 256,
// 1024} × seeds 1–3, with the BFS tree rooted at the first outer-face
// vertex, and hashes Sep.Path, EndA, EndB, Phase, CycleLen, Rounds and the
// bits of Balance of each result, or a marker for ErrNoSeparator.
func TestEngineGolden(t *testing.T) {
	for _, name := range []string{"dual-tree-bfs", "har-peled-nayyeri", "theorem1"} {
		for _, fam := range gen.Families {
			h := sha256.New()
			for _, n := range []int{64, 256, 1024} {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := outerBFSConfig(t, fam, n, seed)
					res, err := sepengine.Find(name, cfg)
					if errors.Is(err, sepengine.ErrNoSeparator) {
						hashInts(h, []int{-1})
						continue
					}
					if err != nil {
						t.Fatalf("%s %s n=%d seed=%d: %v", name, fam, n, seed, err)
					}
					sep := res.Sep
					hashInts(h, sep.Path)
					hashInts(h, []int{sep.EndA, sep.EndB, int(sep.Phase), res.CycleLen, res.Rounds,
						int(math.Float64bits(res.Balance))})
				}
			}
			want := goldenEngineHashes[name+"/"+fam]
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s on %s: golden hash %s, want %s", name, fam, got, want)
			}
		}
	}
}

// TestE10Golden pins the rows of experiment E10, the randomized sampling
// baseline against the deterministic separator.
func TestE10Golden(t *testing.T) {
	for _, tc := range []struct {
		n      int
		rates  []float64
		trials int
		want   string
	}{
		{60, []float64{0.1, 1.0}, 6, "[" +
			"{Family:stacked N:60 SampleRate:0.1 Trials:6 RandOK:3 DetOK:6 AvgSamples:4.666666666666667} " +
			"{Family:stacked N:60 SampleRate:1 Trials:6 RandOK:6 DetOK:6 AvgSamples:60}]"},
		{200, []float64{0.05, 0.5}, 10, "[" +
			"{Family:stacked N:200 SampleRate:0.05 Trials:10 RandOK:9 DetOK:10 AvgSamples:9.5} " +
			"{Family:stacked N:200 SampleRate:0.5 Trials:10 RandOK:10 DetOK:10 AvgSamples:97.9}]"},
	} {
		rows, err := exp.E10("stacked", tc.n, tc.rates, tc.trials, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%+v", rows); got != tc.want {
			t.Errorf("E10 stacked n=%d: rows\n%s\nwant\n%s", tc.n, got, tc.want)
		}
	}
}

func outerBFSConfig(t *testing.T, family string, n int, seed int64) *weights.Config {
	t.Helper()
	in, err := gen.ByName(family, n, seed)
	if err != nil {
		t.Fatalf("%s/%d: %v", family, n, err)
	}
	root := in.OuterRoot()
	tr, err := spanning.BFSTree(in.G, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := weights.NewConfig(in.G, in.Emb, in.OuterDart, tr)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
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
