package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"

	"geoserp/internal/telemetry"
)

// procSnap is a runtime/metrics reading; deltas between two give the
// process cost of the work done in between.
type procSnap struct {
	mallocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU               float64
}

var procNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readProc() procSnap {
	s := make([]metrics.Sample, len(procNames))
	for i, n := range procNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSnap{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// setProcess records the per-operation process cost of the work between
// two snapshots.
func setProcess(m map[string]float64, a, b procSnap, ops int) {
	m["process.mallocs_per_op"] = ratio(float64(b.mallocs-a.mallocs), float64(ops))
	m["process.alloc_bytes_per_op"] = ratio(float64(b.allocBytes-a.allocBytes), float64(ops))
	m["process.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	m["process.gc_cpu_fraction"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}

// liveHeapMB forces collections and returns the live heap in MB. The
// second cycle also drops what sync.Pool victim caches held.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// provenance is the header every result carries, so figures from
// different hosts and revisions can be told apart.
func provenance(o options) string {
	b := telemetry.ReadBuild()
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	}
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d cpu=%q go=%s revision=%s dirty=%t",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), rev, b.Dirty)
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that is unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
