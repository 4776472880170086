// Package uswg's benchmark harness: one sub-benchmark per table and figure
// of the thesis's evaluation (Chapter 5), plus ablation benches for the
// design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment sub-bench runs its registered scenario at a reduced scale
// (sessions shrink, shapes hold); a curve reports its endpoints as custom
// metrics, so a bench run doubles as a shape check:
//
//	BenchmarkScenario/fig5.6 ... y_first=... y_last=...
package uswg

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/gds"
	"uswg/internal/rng"
	"uswg/internal/scenario"
)

// benchOpts shrinks session counts; shapes are preserved.
var benchOpts = scenario.Options{Scale: 0.2}

// chapter5 lists the registered scenarios behind the thesis's Chapter 5
// tables and figures (fig5.3 also draws Figures 5.4 and 5.5).
var chapter5 = []string{
	"table5.1", "table5.2", "table5.3", "table5.4",
	"fig5.1", "fig5.2", "fig5.3",
	"fig5.6", "fig5.7", "fig5.8", "fig5.9", "fig5.10", "fig5.11", "fig5.12",
}

// BenchmarkScenario regenerates each Chapter 5 table and figure through the
// scenario registry. A curve reports its first and last y values (response
// per byte at 1 and 6 users, or at 128 B and 2048 B), so a bench run
// doubles as a shape check. The fig5.6/sequential sub-bench runs the same
// sweep at Parallelism 1: the before/after pair for the sweep fan-out.
func BenchmarkScenario(b *testing.B) {
	for _, name := range chapter5 {
		b.Run(name, func(b *testing.B) { benchScenario(b, name, benchOpts) })
	}
	seq := benchOpts
	seq.Parallelism = 1
	b.Run("fig5.6/sequential", func(b *testing.B) { benchScenario(b, "fig5.6", seq) })
}

func benchScenario(b *testing.B, name string, opts scenario.Options) {
	sc, ok := scenario.Lookup(name)
	if !ok {
		b.Fatalf("no registered scenario %s", name)
	}
	var res scenario.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = scenario.Run(context.Background(), sc, opts); err != nil {
			b.Fatal(err)
		}
	}
	if c, ok := res.(*scenario.CurveResult); ok {
		b.ReportMetric(c.YS[0], "y_first")
		b.ReportMetric(c.YS[len(c.YS)-1], "y_last")
	}
}

// ------------------------------------------------------------------ ablations

// ablationRun executes one default-workload run with the given spec tweak
// and returns mean response per byte.
func ablationRun(b *testing.B, mutate func(*config.Spec)) float64 {
	b.Helper()
	spec := config.Default()
	spec.Users = 3
	spec.Sessions = 24
	mutate(spec)
	gen, err := core.NewGenerator(spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := gen.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res.Analysis.MeanResponsePerByte()
}

// BenchmarkAblationServerCache compares the NFS server with and without its
// block cache (DESIGN.md ablation: cache drives response-time variance).
func BenchmarkAblationServerCache(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = ablationRun(b, func(s *config.Spec) {})
		without = ablationRun(b, func(s *config.Spec) { s.FS.Server.CacheBlocks = 0 })
	}
	b.ReportMetric(with, "resp_us_per_byte_cache")
	b.ReportMetric(without, "resp_us_per_byte_nocache")
}

// BenchmarkAblationNFSDPool compares 1, 4, and 8 server daemons.
func BenchmarkAblationNFSDPool(b *testing.B) {
	for _, nfsds := range []int{1, 4, 8} {
		nfsds := nfsds
		b.Run(fmt.Sprintf("nfsds=%d", nfsds), func(b *testing.B) {
			var rpb float64
			for i := 0; i < b.N; i++ {
				rpb = ablationRun(b, func(s *config.Spec) { s.FS.Server.NFSDs = nfsds })
			}
			b.ReportMetric(rpb, "resp_us_per_byte")
		})
	}
}

// BenchmarkAblationMarkovStream compares the thesis's independent operation
// stream with the §6.2 first-order Markov extension: locality lengthens
// same-file runs, which raises client/server cache hit rates and lowers
// response time per byte.
func BenchmarkAblationMarkovStream(b *testing.B) {
	var independent, markov float64
	for i := 0; i < b.N; i++ {
		independent = ablationRun(b, func(s *config.Spec) {})
		markov = ablationRun(b, func(s *config.Spec) { s.Ext.Locality = 0.8 })
	}
	b.ReportMetric(independent, "resp_us_per_byte_independent")
	b.ReportMetric(markov, "resp_us_per_byte_markov")
}

// ------------------------------------------------------------ microbenches

// BenchmarkCDFTableSampling times inverse-transform sampling from a GDS
// table (the generator's hottest path).
func BenchmarkCDFTableSampling(b *testing.B) {
	tab, err := gds.Table(config.Exp(1024))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.Sample(r)
	}
}

// BenchmarkSessionThroughput measures end-to-end sessions per second of the
// full stack (GDS + FSC + USIM + NFS sim).
func BenchmarkSessionThroughput(b *testing.B) {
	spec := config.Default()
	spec.Sessions = 10
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		gen, err := core.NewGenerator(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10*b.N)/b.Elapsed().Seconds(), "sessions/s")
}

// BenchmarkIdleUserFootprint measures what an idle user costs under lazy
// materialization: a 10,000-user pooled population where only 100 users
// ever hold a session, so B/op and allocs/op are dominated by the 9,900
// idle slots. The per-idle-user byte figure is reported as a custom metric;
// the bench gate's allocs/op check is what catches an idle-cost regression.
func BenchmarkIdleUserFootprint(b *testing.B) {
	spec := config.Default()
	spec.Users = 10000
	spec.Sessions = 100
	spec.SystemFiles = 60
	spec.FilesPerUser = 4
	spec.Trace = config.TraceSpec{Mode: config.TraceStream}
	spec.FS.Topology = &config.Topology{Servers: 4, ClientPool: 16}
	spec.LazyUsers = true
	idle := float64(spec.Users - spec.Sessions)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		gen, err := core.NewGenerator(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/idle, "B/idle_user")
}

// BenchmarkPooledThroughput measures end-to-end sessions per second of the
// scale-out stack: a large population multiplexed over pooled clients on a
// 4-island fleet, where construction and warming are proportional to
// distinct files and pool width rather than users x files.
func BenchmarkPooledThroughput(b *testing.B) {
	spec := config.Default()
	spec.Users = 500
	spec.Sessions = 10
	spec.SystemFiles = 60
	spec.FilesPerUser = 4
	spec.Trace = config.TraceSpec{Mode: config.TraceStream}
	spec.FS.Topology = &config.Topology{Servers: 4, ClientPool: 16}
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		gen, err := core.NewGenerator(spec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(10*b.N)/b.Elapsed().Seconds(), "sessions/s")
}
