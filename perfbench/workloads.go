package main

import (
	"fmt"

	"uswg/internal/config"
)

// workload is one named input the benchmark runs: a spec shape, built from
// the run's seed, and the size the digest and the timed run share.
type workload struct {
	name string
	// build returns the spec for a seed at the given session count.
	build func(seed uint64, sessions int) *config.Spec
	// sessions is the timed run's session count; smoke runs shrink it.
	sessions int
	// nominalOps is the stated input size wall_s is quoted at: about the
	// simulated calls one experiment point makes at the default seed.
	nominalOps float64
}

// workloads lists the benchmark's workloads in their published order.
var workloads = []workload{
	{
		name:       "paper6",
		build:      paper6,
		sessions:   600,
		nominalOps: 400e3,
	},
	{
		name:       "fleet100k",
		build:      fleet100k,
		sessions:   2000,
		nominalOps: 750e3,
	},
	{
		name:       "churn10k",
		build:      churn10k,
		sessions:   2000,
		nominalOps: 320e3,
	},
	{
		name:       "local6",
		build:      local6,
		sessions:   2400,
		nominalOps: 1.6e6,
	},
}

// lookup returns the named workload.
func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// base is config.Default() with the seed, population and session count
// every workload sets.
func base(name string, seed uint64, users, sessions int) *config.Spec {
	spec := config.Default()
	spec.Name = name
	spec.Seed = seed
	spec.Users = users
	spec.Sessions = sessions
	spec.UserTypes = config.ExtremelyHeavyPopulation()
	return spec
}

// paper6 is the fig5.6 six-user point at the paper's 120 system and 60
// per-user files, with the default full-record log.
func paper6(seed uint64, sessions int) *config.Spec {
	spec := base("paper6", seed, 6, sessions)
	spec.SystemFiles, spec.FilesPerUser = 120, 60
	spec.Trace.Mode = config.TraceLog
	return spec
}

// fleet100k is the scale5.3 point: 100,000 lazily materialized users whose
// workstations boot across a 30 s window.
func fleet100k(seed uint64, sessions int) *config.Spec {
	spec := base("fleet100k", seed, 100000, sessions)
	arrive := config.DistSpec{Kind: config.KindUniform, Lo: 0, Hi: 30e6}
	spec.UserTypes[0].Lifecycle = &config.Lifecycle{Arrive: &arrive}
	spec.SystemFiles, spec.FilesPerUser = 60, 4
	spec.Trace.Mode = config.TraceStream
	spec.LazyUsers = true
	spec.FS.Topology = &config.Topology{Servers: 8, ClientPool: 32, Placement: config.PlaceReplicate}
	return spec
}

// churn10k is the scale5.2pool population with every read-only category
// switched off, so sessions reference only NEW, RD-WRT and TEMP files. Its
// system tree is ten times scale5.2pool's: with 60 files a handful of
// shared RD-WRT files set the seed's whole call mix.
func churn10k(seed uint64, sessions int) *config.Spec {
	spec := base("churn10k", seed, 10000, sessions)
	for i := range spec.Categories {
		if spec.Categories[i].Use == config.UseRdOnly {
			spec.Categories[i].PercentUsers = 0
		}
	}
	spec.SystemFiles, spec.FilesPerUser = 600, 4
	spec.Trace.Mode = config.TraceStream
	spec.FS.Topology = &config.Topology{Servers: 4, ClientPool: 32, Placement: config.PlaceReplicate}
	return spec
}

// local6 is paper6's population on the simulated local file system.
func local6(seed uint64, sessions int) *config.Spec {
	spec := paper6(seed, sessions)
	spec.Name = "local6"
	spec.Trace.Mode = config.TraceStream
	spec.FS = config.FSSpec{Kind: config.FSLocal}
	return spec
}
