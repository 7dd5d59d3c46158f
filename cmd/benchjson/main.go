// Command benchjson measures the repository's subsystems over the standard
// generator families and writes the committed BENCH_*.json baselines. Every
// run selects one or more suites from one table; every row carries the same
// envelope (suite, family, n, m and the measured wall_ns, alloc_bytes and
// allocs per op) next to its suite's deterministic columns, and every file
// carries the same header (Go version, platform, CPU count, GOMAXPROCS and
// the suites it holds).
//
// The suites:
//
//   - congest: the CONGEST round engine running BFS flooding, part-wise
//     aggregation and Awerbuch's token DFS; rounds, messages, words and
//     edge congestion.
//   - scaling: instance construction (graph, embedding, validation) and a
//     BFS flood from n = 10^3 to 10^6.
//   - cert: prove-and-verify certification of a correct output per scheme;
//     label width, charged prover rounds, verifier and aggregation rounds.
//   - chaos: the supervised execute-certify-retry loop under a
//     deterministic fault plan; outcome, attempts, rounds against the
//     fault-free run, faults fired.
//   - engines: every registered separator engine on a fresh configuration;
//     cycle length, balance, charged rounds and the distributed cert
//     verdict ("no-separator" marks an engine's honest typed failure).
//   - guard: the admission guard's acceptance cost against the Theorem 2
//     build it fronts, and its rejection latency on a retargeted dart, a
//     genus-raising splice and a planted dense region.
//
// Each suite has its own default families and sizes; -families and -sizes
// override them for every selected suite. The committed baselines:
//
//	GOMAXPROCS=2 benchjson -suite congest,scaling -o BENCH_congest.json
//	GOMAXPROCS=2 benchjson -suite cert -o BENCH_cert.json
//	GOMAXPROCS=2 benchjson -suite chaos -o BENCH_chaos.json
//	GOMAXPROCS=2 benchjson -suite engines -o BENCH_engines.json
//	GOMAXPROCS=2 benchjson -suite guard -o BENCH_guard.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"planardfs/internal/graph"
)

// Row is the envelope every suite's row embeds (JSON flattens it): the
// instance and the measured per-op cost on the machine the file header
// names. The suite's own columns are deterministic properties of the run.
type Row struct {
	Suite      string `json:"suite"`
	Family     string `json:"family"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	WallNs     int64  `json:"wall_ns"`
	AllocBytes int64  `json:"alloc_bytes"`
	Allocs     int64  `json:"allocs"`
}

func (r *Row) envelope() *Row { return r }

// row is any suite's row type; each embeds Row.
type row interface{ envelope() *Row }

// instanceRow starts a row's envelope for family's graph g.
func instanceRow(family string, g *graph.Graph) Row {
	return Row{Family: family, N: g.N(), M: g.M()}
}

// File is the one schema of every BENCH_*.json file.
type File struct {
	Schema     string   `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Suites     []string `json:"suites"`
	Entries    []row    `json:"entries"`
}

// suite is one entry of the table: its default families and sizes, the
// rows it measures on one (family, n) instance, and optional rows it
// measures once per run whatever the families and sizes.
type suite struct {
	name, families, sizes string
	rows                  func(family string, n int) ([]row, error)
	once                  func() ([]row, error)
}

var suites = []suite{
	{name: "congest", families: "grid,cylinderish,stacked", sizes: "1024", rows: congestRows},
	{name: "scaling", families: "grid,cylinderish,stacked", sizes: "1000,10000,100000,1000000", rows: scalingRows},
	{name: "cert", families: "grid,cylinderish,stacked", sizes: "1024", rows: certRows},
	{name: "chaos", families: "grid,cylinderish", sizes: "256", rows: chaosRows},
	{name: "engines", families: "wheel,grid,cylinderish,stacked,polygon", sizes: "256,1024", rows: engineRows},
	{name: "guard", families: "grid,cylinderish,stacked,wheel", sizes: "64,256", rows: guardRows, once: guardDenseRows},
}

func suiteNames() string {
	names := make([]string, len(suites))
	for i, s := range suites {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	suiteFlag := fs.String("suite", "", "comma-separated suites to run: "+suiteNames())
	families := fs.String("families", "", "comma-separated generator families (default: each suite's own)")
	sizes := fs.String("sizes", "", "comma-separated vertex counts (default: each suite's own)")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w (suites: %s)", err, suiteNames())
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (suites: %s)", fs.Args(), suiteNames())
	}
	selected, err := pickSuites(*suiteFlag)
	if err != nil {
		return err
	}

	file := File{
		Schema:     "planardfs/bench/v2",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, s := range selected {
		file.Suites = append(file.Suites, s.name)
		ns, err := parseSizes(or(*sizes, s.sizes))
		if err != nil {
			return err
		}
		add := func(rows []row) {
			for _, r := range rows {
				r.envelope().Suite = s.name
				line, _ := json.Marshal(r)
				fmt.Fprintf(os.Stderr, "%s\n", line)
			}
			file.Entries = append(file.Entries, rows...)
		}
		for _, fam := range strings.Split(or(*families, s.families), ",") {
			for _, n := range ns {
				rows, err := s.rows(fam, n)
				if err != nil {
					return fmt.Errorf("%s %s/%d: %w", s.name, fam, n, err)
				}
				add(rows)
			}
		}
		if s.once != nil {
			rows, err := s.once()
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			add(rows)
		}
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// pickSuites resolves the -suite list against the table, in the order given.
func pickSuites(list string) ([]suite, error) {
	if list == "" {
		return nil, fmt.Errorf("no -suite given (suites: %s)", suiteNames())
	}
	var picked []suite
	for _, name := range strings.Split(list, ",") {
		i := slices.IndexFunc(suites, func(s suite) bool { return s.name == strings.TrimSpace(name) })
		if i < 0 {
			return nil, fmt.Errorf("unknown suite %q (suites: %s)", name, suiteNames())
		}
		picked = append(picked, suites[i])
	}
	return picked, nil
}

func parseSizes(list string) ([]int, error) {
	var ns []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad -sizes entry %q: %w", s, err)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func or(flagValue, def string) string {
	if flagValue != "" {
		return flagValue
	}
	return def
}

// measure times op under testing.Benchmark and fills r's measured columns.
// The first error op returns stops the benchmark and is returned.
func measure(r *Row, op func() error) error {
	var opErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if opErr = op(); opErr != nil {
				b.FailNow()
			}
		}
	})
	if opErr != nil {
		return opErr
	}
	r.WallNs, r.AllocBytes, r.Allocs = res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp()
	return nil
}
