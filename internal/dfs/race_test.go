//go:build race

package dfs

// The race detector makes sync.Pool drop a share of its items on purpose,
// so allocation gates measure nothing under -race.
func init() { raceEnabled = true }
