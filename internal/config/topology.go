package config

import (
	"fmt"

	"uswg/internal/nfs"
)

// Placement strategies for the multi-server namespace router.
const (
	// PlaceShard hashes each directory to exactly one island; a file lives
	// on (and is charged to) its directory's owner. The default.
	PlaceShard = "shard"
	// PlaceReplicate additionally replicates the read-mostly system tree:
	// reads of /sys paths are served by the requesting user's home island
	// while writes still go to the hash-designated primary.
	PlaceReplicate = "replicate"
)

// Topology is the serving fleet's shape: how many NFS server islands exist,
// whether their clients are pooled, and how the namespace maps onto the
// islands. Every island is provisioned identically from FSSpec.Server and
// FSSpec.Client, the one spelling of each server, client, wire and nfsd
// knob.
type Topology struct {
	// Servers is the number of server islands (server + wire + mounted
	// clients). 0 or 1 keeps the thesis's single shared server.
	Servers int `json:"servers,omitempty"`
	// ClientPool switches on client multiplexing: K pooled clients per
	// island serve all users mapped there (user -> pool slot user mod K),
	// making construction and warming proportional to distinct files and
	// pool size instead of users x files. 0 keeps one client per user.
	ClientPool int `json:"client_pool,omitempty"`
	// Placement selects the router strategy: PlaceShard (default when
	// empty) or PlaceReplicate.
	Placement string `json:"placement,omitempty"`
}

// Validate checks the topology block (nil is valid: one island, one client
// per user).
func (t *Topology) Validate() error {
	if t == nil {
		return nil
	}
	if t.Servers < 0 {
		return fmt.Errorf("%w: topology servers %d negative", ErrSpec, t.Servers)
	}
	if t.ClientPool < 0 {
		return fmt.Errorf("%w: topology client_pool %d negative", ErrSpec, t.ClientPool)
	}
	switch t.Placement {
	case "", PlaceShard, PlaceReplicate:
	default:
		return fmt.Errorf("%w: topology placement %q (want %q or %q)", ErrSpec, t.Placement, PlaceShard, PlaceReplicate)
	}
	return nil
}

// ResolvedTopology is the effective fleet: the Topology block's shape with
// its defaults filled in, plus the per-island server and client
// configuration. It is what the generator consumes; resolution is a pure
// function of the FSSpec.
type ResolvedTopology struct {
	// Servers is the island count, at least 1.
	Servers int
	// Pool is the pooled-client count per island (0: one client per user).
	Pool int
	// Placement is PlaceShard or PlaceReplicate.
	Placement string
	// Server and Client are the per-island configurations (FSSpec.Server
	// and FSSpec.Client).
	Server nfs.ServerConfig
	Client nfs.ClientConfig
}

// ResolveTopology returns the effective fleet: one island with one client
// per user unless the Topology block says otherwise.
func (f FSSpec) ResolveTopology() ResolvedTopology {
	r := ResolvedTopology{
		Servers:   1,
		Placement: PlaceShard,
		Server:    f.Server,
		Client:    f.Client,
	}
	if t := f.Topology; t != nil {
		r.Servers = max(t.Servers, 1)
		r.Pool = max(t.ClientPool, 0)
		if t.Placement != "" {
			r.Placement = t.Placement
		}
	}
	return r
}
