package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The exit-code contract of the chaos/certification flags: a run whose
// certification rejects or whose supervised recovery exhausts its attempts
// must exit nonzero, and clean runs must exit zero, so CI scripts can gate
// on the binary directly.

// buildCLI compiles one of the repo's commands into a temp dir.
func buildCLI(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Fatal("not inside a module")
	}
	return filepath.Dir(gomod)
}

func TestRecoverExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/congestsim")

	// Clean supervised run: exit zero, certified on the first attempt.
	out, err := exec.Command(bin, "-program", "bfs", "-n", "36", "-recover").CombinedOutput()
	if err != nil {
		t.Fatalf("fault-free -recover run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "outcome=certified") {
		t.Fatalf("fault-free run did not certify:\n%s", out)
	}

	// A crash at round 0 makes the BFS tree non-spanning on every attempt;
	// with no fallback stage the runtime must exhaust and exit nonzero.
	out, err = exec.Command(bin, "-program", "bfs", "-n", "36", "-recover",
		"-chaos", "crashes=1,horizon=1", "-chaos-seed", "5").CombinedOutput()
	if err == nil {
		t.Fatalf("exhausted recovery exited zero:\n%s", out)
	}
	if !strings.Contains(string(out), "outcome=failed") ||
		!strings.Contains(string(out), "recovery exhausted") {
		t.Fatalf("missing explicit failure report:\n%s", out)
	}

	// The same plan without -recover produces a non-spanning output; the
	// -certify path must catch it (precheck error or REJECT verdict) and
	// exit nonzero.
	out, err = exec.Command(bin, "-program", "bfs", "-n", "36", "-certify",
		"-chaos", "crashes=1,horizon=1", "-chaos-seed", "5").CombinedOutput()
	if err == nil {
		t.Fatalf("-certify accepted a crashed run:\n%s", out)
	}
	if !strings.Contains(string(out), "REJECT") && !strings.Contains(string(out), "not a tree") {
		t.Fatalf("expected an explicit rejection:\n%s", out)
	}
}

func TestChaosFlagDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/congestsim")
	run := func(extra ...string) string {
		args := append([]string{"-program", "bfs", "-n", "64",
			"-chaos", "drops=2,stalls=1", "-chaos-seed", "9"}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	first := run()
	if again := run(); again != first {
		t.Fatalf("same plan diverged across runs:\n--- first ---\n%s--- second ---\n%s", first, again)
	}
	if !strings.Contains(first, "chaos: fired") {
		t.Fatalf("injected run did not report fired faults:\n%s", first)
	}
}

// TestPartsRejected: a part count below 1 is a usage error for every
// program, not a divide-by-zero panic or a silently different partition.
func TestPartsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t, "planardfs/cmd/congestsim")
	for _, args := range [][]string{
		{"-program", "pa", "-parts", "0"},
		{"-program", "pa", "-parts", "-3"},
		{"-program", "boruvka", "-parts", "0"},
		{"-program", "boruvka", "-parts", "-3"},
	} {
		out, err := exec.Command(bin, append(args, "-n", "36")...).CombinedOutput()
		if err == nil {
			t.Fatalf("%v exited zero:\n%s", args, out)
		}
		if !strings.Contains(string(out), "-parts must be at least 1") || strings.Contains(string(out), "panic") {
			t.Fatalf("%v: want a usage error, got:\n%s", args, out)
		}
	}
}
