package main

import (
	"math"
	"strings"
	"testing"

	"uswg/internal/config"
	"uswg/internal/netsim"
	"uswg/internal/nfs"
	"uswg/internal/sim"
	"uswg/internal/vfs"
)

// smokeSessions is the tiny scale the self-tests run every workload at.
const smokeSessions = 12

func smokeRep(t *testing.T, name string, seed uint64) repResult {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	r, g := runRep(w.build(seed, smokeSessions), nil)
	if g == nil {
		t.Fatalf("%s: %s", name, r.Err)
	}
	return r
}

// TestSmokeWorkloads runs every workload spec at a tiny scale: each
// repetition must pass the check, and two repetitions must agree.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := smokeRep(t, w.name, defaultSeed)
			if why := a.check(""); why != "" {
				t.Fatalf("check: %s", why)
			}
			if a.Stats.Ops == 0 || a.SetupS <= 0 || a.RunS <= 0 {
				t.Fatalf("empty repetition: %+v", a)
			}
			b := smokeRep(t, w.name, defaultSeed)
			if why := b.check(a.Stats.digest()); why != "" {
				t.Fatalf("second repetition: %s", why)
			}
		})
	}
}

// TestDigestCatchesPerturbation perturbs each simulated statistic in turn;
// every perturbation must fail the digest check and count the repetition's
// operations as failed.
func TestDigestCatchesPerturbation(t *testing.T) {
	good := smokeRep(t, "paper6", defaultSeed)
	want := good.Stats.digest()
	perturb := map[string]func(*simStats){
		"sessions":      func(s *simStats) { s.Sessions++ },
		"reads":         func(s *simStats) { s.OpsByType["read"]++ },
		"errors":        func(s *simStats) { s.Errors++ },
		"bytes":         func(s *simStats) { s.Bytes++ },
		"virtual time":  func(s *simStats) { s.VirtualUS = math.Nextafter(s.VirtualUS, math.Inf(1)) },
		"resp per byte": func(s *simStats) { s.RespPerByte = math.Nextafter(s.RespPerByte, 0) },
		"server calls":  func(s *simStats) { s.ServerCalls++ },
		"cache hits":    func(s *simStats) { s.CacheHits++ },
		"cache misses":  func(s *simStats) { s.CacheMisses++ },
		"link bytes":    func(s *simStats) { s.LinkBytes++ },
	}
	for name, f := range perturb {
		bad := good
		bad.Stats.OpsByType = map[string]int64{}
		for k, v := range good.Stats.OpsByType {
			bad.Stats.OpsByType[k] = v
		}
		f(&bad.Stats)
		if why := bad.check(want); why == "" {
			t.Errorf("perturbed %s passed the digest check", name)
		}
		w, _ := lookup("paper6")
		_, failed, ok, problems := verify(w, 7, []repResult{good, bad})
		if len(problems) != 1 || failed != int64(bad.Stats.Ops) || !ok[0] || ok[1] {
			t.Errorf("perturbed %s: failed %d, problems %q", name, failed, problems)
		}
	}
}

// TestPaper6StreamReplays captures paper6's call stream from its log and
// replays it through nfs, vfs and trace without error.
func TestPaper6StreamReplays(t *testing.T) {
	w, _ := lookup("paper6")
	spec := w.build(defaultSeed, smokeSessions)
	r, g := runRep(spec, nil)
	if g == nil || r.Err != "" {
		t.Fatal(r.Err)
	}
	s, err := compileStream(g.Log(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.calls) != r.Stats.Ops {
		t.Fatalf("stream holds %d calls, the run made %d", len(s.calls), r.Stats.Ops)
	}
	tables := g.Tables()

	env := sim.NewEnv()
	backing := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	if _, err := populate(backing, spec, tables, s); err != nil {
		t.Fatal(err)
	}
	server, err := nfs.NewServer(env, spec.FS.Server)
	if err != nil {
		t.Fatal(err)
	}
	client, err := nfs.NewClientWithBacking(server, netsim.NewLink(env, spec.FS.Client.Net), spec.FS.Client, backing)
	if err != nil {
		t.Fatal(err)
	}
	if err := replaySim(env, client, s); err != nil {
		t.Fatalf("nfs: %v", err)
	}
	if server.Calls() == 0 {
		t.Fatal("nfs replay reached no server")
	}

	env = sim.NewEnv()
	local := vfs.NewMemFS(vfs.WithCostModel(vfs.NewLocalCost(env, localConfig(spec))), vfs.WithMaxFDs(1<<20))
	if _, err := populate(local, spec, tables, s); err != nil {
		t.Fatal(err)
	}
	if err := replaySim(env, local, s); err != nil {
		t.Fatalf("memfs: %v", err)
	}
	bare := vfs.NewMemFS(vfs.WithMaxFDs(1 << 20))
	if _, err := populate(bare, spec, tables, s); err != nil {
		t.Fatal(err)
	}
	if err := replayBare(bare.Bare(), s); err != nil {
		t.Fatalf("bare: %v", err)
	}

	if l := appendLog(s, spec.Users); l.Len() != len(s.records) {
		t.Fatalf("trace append: %d of %d records", l.Len(), len(s.records))
	}
	if a := fold(s, spec.Users); a.Ops != len(s.records) || len(a.Sessions) != smokeSessions {
		t.Fatalf("trace fold: %d ops in %d sessions", a.Ops, len(a.Sessions))
	}
}

// TestReplayReportsFailures replays a stream onto an empty file system,
// where its first open fails: the replay must say so.
func TestReplayReportsFailures(t *testing.T) {
	w, _ := lookup("paper6")
	spec := w.build(defaultSeed, smokeSessions)
	_, g := runRep(spec, nil)
	s, err := compileStream(g.Log(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = replaySim(sim.NewEnv(), vfs.NewMemFS(), s)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("replay onto an empty file system: %v", err)
	}
}

// TestLayerDrives runs the standalone drives on the smoke stream of every
// workload and checks each reports its metric.
func TestLayerDrives(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spec := w.build(defaultSeed, smokeSessions)
			spec.Trace.Mode = config.TraceLog
			r, g := runRep(spec, nil)
			if g == nil || r.Err != "" {
				t.Fatal(r.Err)
			}
			s, err := compileStream(g.Log(), spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			m := map[string]float64{}
			var replayed int64
			if err := driveLayers(m, newTracer(w.name), spec, g.Tables(), s, &replayed); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"nfs.stack_ns_per_op", "vfs.memfs_ns_per_op", "vfs.bare_ns_per_op",
				"trace.append_ns_per_record", "trace.fold_ns_per_record", "cache.access_ns",
				"netsim.transfer_ns", "sim.hold_ns_per_event", "sim.resource_ns_per_op", "gds.build_s", "fsc.build_s"} {
				if !(m[name] > 0) {
					t.Errorf("%s = %v", name, m[name])
				}
			}
			if replayed != 5*int64(len(s.calls)) {
				t.Errorf("replayed %d calls, want %d", replayed, 5*len(s.calls))
			}
		})
	}
}

// TestSelfTimes checks a parent's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "b", Start: 5, End: 6},
		{ID: 3, Parent: 1, Name: "c", Start: 2, End: 3},
	}
	self := tr.selfTimes()
	want := map[string]float64{"root": 6, "a": 2, "b": 1, "c": 1}
	for name, v := range want {
		if self[name] != v {
			t.Errorf("self[%s] = %v, want %v", name, self[name], v)
		}
	}
}

// TestReferenceDigests runs every workload at full size on the default
// and held-out seeds and compares its digest with the recorded one.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size runs")
	}
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			want, ok := reference[w.name][seed]
			if !ok {
				t.Errorf("%s: no reference digest at seed %d", w.name, seed)
				continue
			}
			r, _ := runRep(w.build(seed, w.sessions), nil)
			if why := r.check(want); why != "" {
				t.Errorf("%s seed %d: %s", w.name, seed, why)
			}
		}
	}
}
