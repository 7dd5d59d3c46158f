package main

import (
	"runtime/metrics"
	"time"
)

// Wall-clock and heap counters for the benchmark, concentrated in one
// file. Every clock read goes through now, the single annotated read, so
// the wall-clock exemption stays auditable: timings are the benchmark's
// output and never feed back into the inputs it generates or checks.

// now returns the wall time in nanoseconds.
func now() int64 {
	return time.Now().UnixNano() //planarvet:wallclock benchmark timings are measurements, never algorithm input
}

// seconds converts a nanosecond interval to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// runtimeCounters reads the cumulative heap-allocation and GC-cycle
// counters from runtime/metrics, which (unlike ReadMemStats) does not stop
// the world.
type runtimeCounters struct {
	samples []metrics.Sample
}

func newRuntimeCounters() *runtimeCounters {
	return &runtimeCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}}
}

// read returns the bytes allocated and GC cycles completed since process
// start. It is not safe for concurrent use; give each goroutine its own.
func (c *runtimeCounters) read() (allocBytes, gcCycles uint64) {
	metrics.Read(c.samples)
	return c.samples[0].Value.Uint64(), c.samples[1].Value.Uint64()
}
