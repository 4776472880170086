package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"uswg/internal/config"
	"uswg/internal/core"
	"uswg/internal/dist"
	"uswg/internal/fsc"
	"uswg/internal/gds"
	"uswg/internal/netsim"
	"uswg/internal/nfs"
	"uswg/internal/rng"
	"uswg/internal/sim"
	"uswg/internal/trace"
	"uswg/internal/vfs"
)

// maxReplay caps the calls the standalone layer drives replay, so a traced
// run takes seconds on every workload.
const maxReplay = 400_000

// layerReport is the traced child's report: the per-layer metrics it
// measured, the traced whole-stack run, and any check that failed.
type layerReport struct {
	Metrics  map[string]float64 `json:"metrics"`
	Traced   repResult          `json:"traced"`
	Replayed int64              `json:"replayed"`
	Problems []string           `json:"problems"`
}

// runLayers is the traced run. It makes one whole-stack run with spans
// around setup and run and reads every layer's counters from it, captures
// the workload's call stream from a log-mode run of the same spec and seed,
// and drives each layer on its own through its public API, timing each
// drive in a span.
func runLayers(w workload, seed uint64, spansPath string) (layerReport, error) {
	rep := layerReport{Metrics: map[string]float64{}}
	m := rep.Metrics
	problem := func(format string, a ...any) { rep.Problems = append(rep.Problems, fmt.Sprintf(format, a...)) }
	spec := w.build(seed, w.sessions)
	tr := newTracer(w.name)
	root := tr.begin("layers", 0)

	r, g := runRep(spec, tr)
	rep.Traced = r
	if g == nil || r.Err != "" {
		return rep, fmt.Errorf("traced run: %s", r.Err)
	}
	wholeStackCounts(m, g, r)

	// The call stream: the traced run's own log in log mode, else a
	// log-mode run of the same spec and seed, which must change no
	// simulated statistic.
	log := g.Log()
	if log == nil {
		logSpec := w.build(seed, w.sessions)
		logSpec.Trace.Mode = config.TraceLog
		var lr repResult
		var lg *core.Generator
		tr.timed("capture", 0, func() { lr, lg = runRep(logSpec, nil) })
		if lg == nil || lr.Err != "" {
			return rep, fmt.Errorf("log-mode run: %s", lr.Err)
		}
		if lr.Stats.digest() != r.Stats.digest() {
			problem("log-mode run digest %s differs from the run's %s", lr.Stats.digest(), r.Stats.digest())
		}
		log = lg.Log()
	}
	m["trace.records"] = float64(log.Len())
	m["trace.analyze_s"] = tr.timed("trace.Analyze", 0, func() { trace.Analyze(log) })
	var s *stream
	var err error
	tr.timed("stream.compile", 0, func() { s, err = compileStream(log, spec, maxReplay) })
	if err != nil {
		return rep, fmt.Errorf("call stream: %w", err)
	}
	tables := g.Tables()
	runtime.GC() // the drives start from a heap without the run's garbage

	if err := driveLayers(m, tr, spec, tables, s, &rep.Replayed); err != nil {
		problem("%v", err)
	}
	tr.end(root)

	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			return rep, err
		}
		werr := tr.write(f)
		if err := f.Close(); werr == nil {
			werr = err
		}
		if werr != nil {
			return rep, fmt.Errorf("write spans: %w", werr)
		}
	}
	tr.printSelf(os.Stderr)
	return rep, nil
}

// wholeStackCounts reads every layer's counters from the finished
// whole-stack run through the generator's public getters.
func wholeStackCounts(m map[string]float64, g *core.Generator, r repResult) {
	st := r.Stats
	m["fsc.build_ops"] = float64(r.BuildOps)
	m["fsc.materialized_users"] = float64(r.Materialized)
	m["core.warm_ops"] = float64(r.WarmOps)
	m["usim.sessions"] = float64(st.Sessions)
	m["usim.ops"] = float64(st.Ops)
	for _, op := range []trace.Op{trace.OpRead, trace.OpWrite, trace.OpCreate, trace.OpUnlink} {
		m["usim.ops."+op.String()] = float64(st.OpsByType[op.String()])
	}
	m["sim.virtual_s"] = st.VirtualUS / 1e6

	var dataCalls, hits, misses int64
	var util, waitSum float64
	for _, srv := range g.Servers() {
		dataCalls += srv.DataCalls()
		hits += srv.Cache().Hits()
		misses += srv.Cache().Misses()
		util += srv.NFSDUtilization()
		waitSum += srv.MeanNFSDWait() * float64(srv.Calls())
	}
	m["nfs.server.calls"] = float64(st.ServerCalls)
	m["nfs.server.data_calls"] = float64(dataCalls)
	m["nfs.server.nfsd_util"] = mean(util, len(g.Servers()))
	m["nfs.server.nfsd_wait_us"] = mean(waitSum, int(st.ServerCalls))
	m["cache.server.accesses"] = float64(hits + misses)
	m["cache.server.hit_ratio"] = mean(float64(hits), int(hits+misses))

	var rpcs, flushes int64
	hits, misses = 0, 0
	for _, c := range clientsOf(g) {
		rpcs += c.RPCs()
		flushes += c.Flushes()
		if p := c.Pages(); p != nil {
			hits += p.Hits()
			misses += p.Misses()
		}
	}
	m["nfs.client.rpcs"] = float64(rpcs)
	m["nfs.client.flushes"] = float64(flushes)
	m["cache.client.accesses"] = float64(hits + misses)
	m["cache.client.hit_ratio"] = mean(float64(hits), int(hits+misses))

	hits, misses = 0, 0
	if lc := g.LocalCost(); lc != nil {
		hits, misses = lc.Cache().Hits(), lc.Cache().Misses()
	}
	m["cache.local.accesses"] = float64(hits + misses)
	m["cache.local.hit_ratio"] = mean(float64(hits), int(hits+misses))

	var msgs, retrans int64
	var linkUtil, blocked float64
	for _, l := range g.Links() {
		msgs += l.Messages()
		retrans += l.Retransmits()
		linkUtil += l.Utilization()
		blocked += l.BlockedTime()
	}
	m["netsim.messages"] = float64(msgs)
	m["netsim.bytes"] = float64(st.LinkBytes)
	m["netsim.retransmits"] = float64(retrans)
	m["netsim.util"] = mean(linkUtil, len(g.Links()))
	m["netsim.blocked_us"] = blocked
}

// mean returns sum/n, 0 when n is 0.
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// nfsConfigs returns the workload's resolved NFS configuration, or the
// defaults for a workload that runs no NFS, whose stream the NFS drive
// replays just the same.
func nfsConfigs(spec *config.Spec) config.ResolvedTopology {
	if spec.FS.Kind == config.FSNFS {
		return spec.FS.ResolveTopology()
	}
	return config.ResolvedTopology{Servers: 1, Server: nfs.DefaultServerConfig(), Client: nfs.DefaultClientConfig()}
}

// localConfig returns the workload's local cost configuration, with the
// defaults the generator applies when it sets none.
func localConfig(spec *config.Spec) vfs.LocalCostConfig {
	if cfg := spec.FS.Local; cfg.Disk.BlockSize != 0 {
		return cfg
	}
	return vfs.DefaultLocalCostConfig()
}

// populate builds the workload's initial file system onto fs exactly as the
// generator does (same FSC seed stream), materializing every stream user
// of a lazy population, so the recorded calls replay without error.
func populate(fs vfs.FileSystem, spec *config.Spec, tables *gds.TableSet, s *stream) (*fsc.Inventory, error) {
	inv, err := fsc.Build(&vfs.ManualClock{}, fs, spec, tables, rng.Derive(spec.Seed, "fsc"))
	if err != nil {
		return nil, err
	}
	for _, u := range s.users {
		if err := inv.MaterializeUser(u); err != nil {
			return nil, err
		}
	}
	return inv, nil
}

// nsPer returns a span's duration in nanoseconds per unit of work.
func nsPer(seconds float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return seconds * 1e9 / float64(n)
}

// driveLayers runs the standalone layer drives.
func driveLayers(m map[string]float64, tr *tracer, spec *config.Spec, tables *gds.TableSet, s *stream, replayed *int64) error {
	calls := int64(len(s.calls))
	procs := len(s.users)
	topo := nfsConfigs(spec)

	// gds and dist.
	var builds []float64
	for i := 0; i < 5; i++ {
		var err error
		builds = append(builds, tr.timed("gds.BuildTables", i, func() { _, err = gds.BuildTables(spec) }))
		if err != nil {
			return fmt.Errorf("gds: %w", err)
		}
	}
	m["gds.build_s"] = median(builds)
	m["dist.sample_ns"] = sampleTables(tr, tables, spec.Seed)

	// fsc: the whole build onto a bare MemFS, and per-user
	// materialization of the stream's users from a lazy build.
	builds = builds[:0]
	for i := 0; i < 3; i++ {
		var err error
		builds = append(builds, tr.timed("fsc.Build", i, func() {
			_, err = fsc.Build(&vfs.ManualClock{}, vfs.NewMemFS(vfs.WithMaxFDs(1<<20)), spec, tables, rng.Derive(spec.Seed, "fsc"))
		}))
		if err != nil {
			return fmt.Errorf("fsc: %w", err)
		}
	}
	m["fsc.build_s"] = median(builds)
	lazy := *spec
	lazy.LazyUsers = true
	inv, err := fsc.Build(&vfs.ManualClock{}, vfs.NewMemFS(vfs.WithMaxFDs(1<<20)), &lazy, tables, rng.Derive(spec.Seed, "fsc"))
	if err != nil {
		return fmt.Errorf("fsc lazy build: %w", err)
	}
	d := tr.timed("fsc.MaterializeUser", 0, func() {
		for _, u := range s.users {
			if err = inv.MaterializeUser(u); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("fsc materialize: %w", err)
	}
	m["fsc.materialize_us_per_user"] = d * 1e6 / float64(len(s.users))

	// nfs: client, link and server on one simulated process.
	env := sim.NewEnv()
	backing := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	if _, err := populate(backing, spec, tables, s); err != nil {
		return fmt.Errorf("nfs populate: %w", err)
	}
	server, err := nfs.NewServer(env, topo.Server)
	if err != nil {
		return err
	}
	client, err := nfs.NewClientWithBacking(server, netsim.NewLink(env, topo.Client.Net), topo.Client, backing)
	if err != nil {
		return err
	}
	d = tr.timed("nfs.replay", 0, func() { err = replaySim(env, client, s) })
	if err != nil {
		return fmt.Errorf("nfs replay: %w", err)
	}
	*replayed += calls
	m["nfs.stack_ns_per_op"] = nsPer(d, calls)

	// vfs: MemFS with the local cost model under a DES, and bare.
	env = sim.NewEnv()
	local := vfs.NewMemFS(vfs.WithCostModel(vfs.NewLocalCost(env, localConfig(spec))), vfs.WithMaxFDs(1<<20))
	if _, err := populate(local, spec, tables, s); err != nil {
		return fmt.Errorf("memfs populate: %w", err)
	}
	d = tr.timed("vfs.memfs.replay", 0, func() { err = replaySim(env, local, s) })
	if err != nil {
		return fmt.Errorf("memfs replay: %w", err)
	}
	*replayed += calls
	m["vfs.memfs_ns_per_op"] = nsPer(d, calls)
	bare := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	if _, err := populate(bare, spec, tables, s); err != nil {
		return fmt.Errorf("bare populate: %w", err)
	}
	d = tr.timed("vfs.bare.replay", 0, func() { err = replayBare(bare.Bare(), s) })
	if err != nil {
		return fmt.Errorf("bare replay: %w", err)
	}
	*replayed += calls
	m["vfs.bare_ns_per_op"] = nsPer(d, calls)

	// trace: append into a log, fold into a summarizer.
	var l *trace.Log
	d = tr.timed("trace.append", 0, func() { l = appendLog(s, spec.Users) })
	if l.Len() != len(s.records) {
		return fmt.Errorf("trace append: %d of %d records", l.Len(), len(s.records))
	}
	*replayed += int64(len(s.records))
	m["trace.append_ns_per_record"] = nsPer(d, int64(len(s.records)))
	var a *trace.Analysis
	d = tr.timed("trace.fold", 0, func() { a = fold(s, spec.Users) })
	if a.Ops != len(s.records) {
		return fmt.Errorf("trace fold: %d of %d records", a.Ops, len(s.records))
	}
	*replayed += int64(len(s.records))
	m["trace.fold_ns_per_record"] = nsPer(d, int64(len(s.records)))

	// cache: a standalone LRU at the server's capacity (the buffer
	// cache's in local mode).
	capacity, block := topo.Server.CacheBlocks, topo.Server.Disk.BlockSize
	if spec.FS.Kind == config.FSLocal {
		cfg := localConfig(spec)
		capacity, block = cfg.CacheBlocks, cfg.Disk.BlockSize
	}
	t0 := time.Now()
	var cd cacheDrive
	tr.timed("cache.replay", 0, func() {
		cd = driveCache(s, capacity, block, func() int64 { return int64(time.Since(t0)) })
	})
	m["cache.access_ns"] = nsPer(float64(cd.accessNS)/1e9, cd.accesses)
	m["cache.invalidate_file_ns"] = nsPer(float64(cd.invalidateNS)/1e9, cd.invalidations)

	// netsim: the data calls' messages over one link.
	var msgs int64
	d = tr.timed("netsim.replay", 0, func() { msgs, err = driveLink(s, topo.Client.Net, topo.Client.HeaderBytes, min(procs, 64)) })
	if err != nil {
		return fmt.Errorf("netsim drive: %w", err)
	}
	m["netsim.transfer_ns"] = nsPer(d, msgs)

	// sim: holds and a contended resource at the workload's process and
	// daemon counts.
	var events int64
	d = tr.timed("sim.hold", 0, func() { events, err = driveHold(procs, max(1, 1_000_000/procs)) })
	if err != nil {
		return fmt.Errorf("sim hold drive: %w", err)
	}
	m["sim.hold_ns_per_event"] = nsPer(d, events)
	servers := topo.Server.NFSDs
	if spec.FS.Kind == config.FSLocal {
		servers = 1 // the local disk arm
	}
	var acquired int64
	d = tr.timed("sim.resource", 0, func() { acquired, err = driveResource(procs, servers, max(1, 300_000/procs)) })
	if err != nil {
		return fmt.Errorf("sim resource drive: %w", err)
	}
	m["sim.resource_ns_per_op"] = nsPer(d, acquired)
	return nil
}

// sampleTables draws from every compiled table in turn and returns the
// cost per draw, ns.
func sampleTables(tr *tracer, ts *gds.TableSet, seed uint64) float64 {
	tables := append([]*dist.CDFTable{ts.AccessSize}, ts.FileSize...)
	tables = append(tables, ts.AccessPerByte...)
	tables = append(tables, ts.FilesAccessed...)
	for _, t := range ts.ThinkTime {
		tables = append(tables, t)
	}
	r := rng.Derive(seed, "perfbench")
	const draws = 1_000_000
	var sink float64
	d := tr.timed("dist.Sample", 0, func() {
		for i := 0; i < draws; i++ {
			sink += tables[i%len(tables)].Sample(r)
		}
	})
	_ = sink
	return nsPer(d, draws)
}
