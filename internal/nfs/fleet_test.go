package nfs

import (
	"fmt"
	"testing"

	"uswg/internal/sim"
	"uswg/internal/vfs"
)

func testFleet(t *testing.T, servers, pool int, seed uint64, replicate bool) *Fleet {
	t.Helper()
	f, err := NewFleet(sim.NewEnv(), FleetConfig{
		Servers:   servers,
		Pool:      pool,
		Replicate: replicate,
		Server:    testServerConfig(),
		Client:    testClientConfig(),
	}, seed, vfs.NewMemFS())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetRoutingDeterministic pins the placement contract: routing is a
// pure function of (seed, path, island count), identical across independent
// constructions and independent of query order.
func TestFleetRoutingDeterministic(t *testing.T) {
	paths := make([]string, 0, 64)
	for u := 0; u < 8; u++ {
		for i := 0; i < 8; i++ {
			paths = append(paths, fmt.Sprintf("/u%d/text-file/f%d", u, i))
		}
	}
	a := testFleet(t, 4, 8, 42, false)
	b := testFleet(t, 4, 8, 42, false)
	for _, p := range paths {
		if a.Route(p) != b.Route(p) {
			t.Fatalf("route of %q differs across constructions: %d vs %d", p, a.Route(p), b.Route(p))
		}
	}
	// Reversed query order must not matter (no hidden state).
	for i := len(paths) - 1; i >= 0; i-- {
		if a.Route(paths[i]) != b.Route(paths[i]) {
			t.Fatal("route depends on query order")
		}
	}
	c := testFleet(t, 4, 8, 43, false)
	diff := 0
	for _, p := range paths {
		if a.Route(p) != c.Route(p) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("changing the seed never moved a path: salt unused?")
	}
}

// TestFleetRouteByDirectory checks that a directory's files co-locate: the
// hash keys on the parent directory, so a category's files land together.
func TestFleetRouteByDirectory(t *testing.T) {
	f := testFleet(t, 8, 4, 7, false)
	home := f.Route("/u3/text-file/f0")
	for i := 1; i < 20; i++ {
		if got := f.Route(fmt.Sprintf("/u3/text-file/f%d", i)); got != home {
			t.Fatalf("file %d of the same directory routed to %d, sibling to %d", i, got, home)
		}
	}
	// Islands must all see traffic across many directories.
	used := make(map[int]bool)
	for u := 0; u < 64; u++ {
		used[f.Route(fmt.Sprintf("/u%d/text-file/f0", u))] = true
	}
	if len(used) < 4 {
		t.Errorf("64 user directories landed on only %d of 8 islands", len(used))
	}
}

// TestFleetReplicateSystemReads checks the replicate placement: system-tree
// reads are served from the requesting user's home island, writes and
// non-system paths stay on the hash-designated primary.
func TestFleetReplicateSystemReads(t *testing.T) {
	f := testFleet(t, 4, 2, 11, true)
	const sys = "/sys/temporary/f1"
	for isl := 0; isl < 4; isl++ {
		if !f.Serves(isl, sys) {
			t.Errorf("island %d does not serve replicated system path", isl)
		}
	}
	for u := 0; u < 8; u++ {
		home := u % 4
		if got := f.ReadClientFor(u, sys); got != f.ClientFor(u, home) {
			t.Errorf("user %d reads system path off-home", u)
		}
	}
	user := "/u2/text-file/f0"
	primary := f.Route(user)
	for isl := 0; isl < 4; isl++ {
		if f.Serves(isl, user) != (isl == primary) {
			t.Errorf("island %d serving user path: want primary-only", isl)
		}
	}
}

// TestFleetPoolSlots checks the client provisioning. Pooled: width clients
// per island, users multiplexed user mod width. Per-user: no clients until a
// user is mounted, then private ones — the bare client on a one-island fleet
// (the thesis testbed), a router over one client per island otherwise.
func TestFleetPoolSlots(t *testing.T) {
	const pool = 4
	f := testFleet(t, 2, pool, 3, false)
	if !f.Pooled() {
		t.Fatal("pool > 0 must be pooled")
	}
	for _, isl := range f.Islands() {
		if len(isl.Pool()) != pool {
			t.Fatalf("island has %d clients, want %d", len(isl.Pool()), pool)
		}
	}
	if f.ClientFor(1, 0) != f.ClientFor(1+pool, 0) {
		t.Error("users 1 and 1+pool should share a pool slot")
	}
	if f.ClientFor(1, 0) == f.ClientFor(2, 0) {
		t.Error("users 1 and 2 should use different pool slots")
	}

	one := testFleet(t, 1, 0, 3, false)
	if one.Pooled() || len(one.Islands()[0].Pool()) != 0 {
		t.Fatal("per-user fleet must build no pooled clients")
	}
	a, ok := one.FSForUser(0).(*Client)
	if !ok {
		t.Fatalf("one-island mount is %T, want *Client", one.FSForUser(0))
	}
	b, _ := one.FSForUser(1).(*Client)
	if a == b || b == nil {
		t.Error("each user must get a distinct private client")
	}
	if _, ok := one.SetupFS().(*Client); !ok {
		t.Errorf("one-island setup mount is %T, want *Client", one.SetupFS())
	}

	two := testFleet(t, 2, 0, 3, false)
	r0, ok := two.FSForUser(0).(*routerFS)
	if !ok {
		t.Fatalf("two-island mount is %T, want a router", two.FSForUser(0))
	}
	r1 := two.FSForUser(1).(*routerFS)
	for isl := range two.Islands() {
		if r0.clients[isl] == nil || r0.clients[isl] == r1.clients[isl] {
			t.Errorf("island %d: users 0 and 1 must hold distinct private clients", isl)
		}
	}
	if r0.clients[0] == r0.clients[1] {
		t.Error("a user's clients on different islands must differ")
	}
}

// TestRouterFSTracksFDs drives a write/read through the router and checks FD
// ownership: ops on an FD go to the client that opened it, and a bad FD is
// rejected with vfs.ErrBadFD without touching any island.
func TestRouterFSTracksFDs(t *testing.T) {
	f := testFleet(t, 4, 2, 5, false)
	ctx := &vfs.ManualClock{}
	root := vfs.Sync{FS: f.SetupFS()}
	if err := root.Mkdir(ctx, "/u1"); err != nil {
		t.Fatal(err)
	}
	fsys := vfs.Sync{FS: f.FSForUser(1)}
	fd, err := fsys.Create(ctx, "/u1/f0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Write(ctx, fd, 100); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Close(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.Read(ctx, vfs.FD(99999), 10); err == nil {
		t.Error("read of unopened fd should fail")
	}
	fd2, err := fsys.Open(ctx, "/u1/f0", vfs.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fsys.Read(ctx, fd2, 100); err != nil || n != 100 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if err := fsys.Close(ctx, fd2); err != nil {
		t.Fatal(err)
	}
	// A closed FD's routing entry is reclaimed.
	if _, err := fsys.Read(ctx, fd2, 10); err == nil {
		t.Error("read of closed fd should fail")
	}
}
