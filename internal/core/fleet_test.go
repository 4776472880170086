package core

import (
	"testing"

	"uswg/internal/config"
	"uswg/internal/nfs"
	"uswg/internal/trace"
)

// fleetSpec returns a quick multi-island pooled spec.
func fleetSpec(servers, pool int) *config.Spec {
	spec := smallSpec()
	spec.Users = 6
	spec.Sessions = 12
	spec.FS.Topology = &config.Topology{Servers: servers, ClientPool: pool}
	return spec
}

func TestFleetRunEndToEnd(t *testing.T) {
	gen, err := NewGenerator(fleetSpec(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if gen.Fleet() == nil {
		t.Fatal("topology with servers>1 must take the fleet path")
	}
	if got := len(gen.Servers()); got != 4 {
		t.Fatalf("servers = %d, want 4", got)
	}
	if got := len(gen.Links()); got != 4 {
		t.Fatalf("links = %d, want 4", got)
	}
	res, err := gen.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 12 {
		t.Errorf("sessions = %d, want 12", res.Sessions)
	}
	if res.Analysis.Response.N() == 0 {
		t.Error("no data ops recorded")
	}
	var calls int64
	islands := 0
	for _, s := range gen.Servers() {
		if s.Calls() > 0 {
			islands++
		}
		calls += s.Calls()
	}
	if calls == 0 {
		t.Error("fleet saw no RPCs")
	}
	if islands < 2 {
		t.Errorf("only %d of 4 islands saw traffic; router may not shard", islands)
	}
}

// TestFleetRunsAreReproducible pins fleet determinism at the generator
// level: two independent constructions of the same pooled multi-island spec
// produce bit-identical traces.
func TestFleetRunsAreReproducible(t *testing.T) {
	run := func() []trace.Record {
		gen, err := NewGenerator(fleetSpec(4, 2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.Log().Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestFleetLegacySpecUnchanged guards the thesis testbed's surface: a spec
// with no topology block is the one-island per-user fleet, which reports no
// scale-out Fleet, exposes one server and link through the island getters,
// and runs its sessions on user 0's private *nfs.Client.
func TestFleetLegacySpecUnchanged(t *testing.T) {
	gen, err := NewGenerator(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if gen.Fleet() != nil {
		t.Fatal("the one-island per-user testbed must not report a fleet")
	}
	if len(gen.Servers()) != 1 || len(gen.Links()) != 1 {
		t.Errorf("testbed exposes %d servers / %d links, want 1/1",
			len(gen.Servers()), len(gen.Links()))
	}
	if _, ok := gen.FS().(*nfs.Client); !ok {
		t.Errorf("FS() = %T, want user 0's *nfs.Client", gen.FS())
	}
}

// TestPooledWarmingCost is the scale claim behind the client pool: warming
// work grows with pool size and distinct files, not users x files. A pooled
// 40-user population must warm far fewer paths than the per-user mode, and
// growing the population with the pool held fixed must only add the new
// users' own files (not another full pass over the system tree per user).
func TestPooledWarmingCost(t *testing.T) {
	warmOps := func(users, pool int) int64 {
		spec := smallSpec()
		spec.Users = users
		spec.Sessions = 4
		spec.FilesPerUser = 4
		if pool > 0 {
			spec.FS.Topology = &config.Topology{Servers: 2, ClientPool: pool}
		}
		gen, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Run(); err != nil {
			t.Fatal(err)
		}
		return gen.WarmOps()
	}
	const users, pool = 40, 2
	legacy, pooled := warmOps(users, 0), warmOps(users, pool)
	if pooled*4 > legacy {
		t.Errorf("pooled warming (%d ops) should be well under legacy (%d ops)", pooled, legacy)
	}
	// Doubling the population with the pool fixed adds only the new users'
	// own files: the system-tree share must not grow.
	grown := warmOps(2*users, pool)
	if added := grown - pooled; added > int64(users)*8 {
		t.Errorf("adding %d users added %d warm ops; pooled warming should not rescan the system tree per user", users, added)
	}
}
