package main

import (
	"fmt"
	"runtime"
	"time"

	"uswg/internal/config"
	"uswg/internal/core"
)

// repResult is one repetition's report: host timings and Go runtime
// counters for the setup and run phases, and the simulated statistics the
// digest check folds.
type repResult struct {
	WantSessions int      `json:"want_sessions"`
	Err          string   `json:"err,omitempty"`
	SetupS       float64  `json:"setup_s"`
	RunS         float64  `json:"run_s"`
	Stats        simStats `json:"stats"`
	WarmOps      int64    `json:"warm_ops"`
	BuildOps     int64    `json:"build_ops"`
	Materialized int      `json:"materialized"`
	SetupAllocs  uint64   `json:"setup_allocs"`
	SetupBytes   uint64   `json:"setup_bytes"`
	RunAllocs    uint64   `json:"run_allocs"`
	RunBytes     uint64   `json:"run_bytes"`
	RunGC        uint32   `json:"run_gc"`
	HeapSysMB    float64  `json:"heap_sys_mb"`
	// PeakRSSMB is the repetition process's peak resident set, filled in
	// by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// runRep builds and runs one generator for the spec through the public
// core.NewGenerator → Generator.Run path, timing the two phases apart and
// reading runtime.MemStats around each. With a tracer, the two phases are
// also spans. The generator is returned for callers that read further
// counters.
func runRep(spec *config.Spec, tr *tracer) (repResult, *core.Generator) {
	r := repResult{WantSessions: spec.Sessions}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	span := tr.begin("core.NewGenerator", 0)
	t0 := time.Now()
	g, err := core.NewGenerator(spec)
	t1 := time.Now()
	tr.end(span)
	runtime.ReadMemStats(&m1)
	r.SetupS = t1.Sub(t0).Seconds()
	r.SetupAllocs = m1.Mallocs - m0.Mallocs
	r.SetupBytes = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		r.Err = fmt.Sprintf("setup: %v", err)
		return r, nil
	}
	span = tr.begin("core.Run", 0)
	t2 := time.Now()
	res, err := g.Run()
	t3 := time.Now()
	tr.end(span)
	runtime.ReadMemStats(&m2)
	r.RunS = t3.Sub(t2).Seconds()
	r.RunAllocs = m2.Mallocs - m1.Mallocs
	r.RunBytes = m2.TotalAlloc - m1.TotalAlloc
	r.RunGC = m2.NumGC - m1.NumGC
	r.HeapSysMB = float64(m2.HeapSys) / (1 << 20)
	if err != nil {
		r.Err = fmt.Sprintf("run: %v", err)
		return r, g
	}
	r.Stats = collectStats(g, res)
	r.WarmOps = g.WarmOps()
	r.BuildOps = g.BuildOps()
	r.Materialized = g.MaterializedUsers()
	return r, g
}

// check reports why a repetition does not count as a correct run, or "" if
// it does: it must finish without error, complete every session its spec
// asks for, fail no operation, and match the digest it is held to (none
// when want is empty).
func (r repResult) check(want string) string {
	switch {
	case r.Err != "":
		return r.Err
	case r.Stats.Sessions != r.WantSessions:
		return fmt.Sprintf("completed %d of %d sessions", r.Stats.Sessions, r.WantSessions)
	case r.Stats.Errors != 0:
		return fmt.Sprintf("%d failed operations", r.Stats.Errors)
	case want != "" && r.Stats.digest() != want:
		return fmt.Sprintf("digest %s, want %s", r.Stats.digest(), want)
	}
	return ""
}
