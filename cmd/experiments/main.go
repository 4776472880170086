// Command experiments regenerates the thesis's evaluation tables and
// figures (Chapter 5), plus the fault and scale families built on the same
// workload. Every experiment is a registered scenario (package scenario):
// -run resolves names through the registry, -scenario executes a
// declarative JSON scenario file, and -dump exports any built-in as JSON to
// start a new workload from.
//
// Usage:
//
//	experiments -run table5.3            # one experiment
//	experiments -run fault5.1            # degraded user curves + availability
//	experiments -run all -scale 0.2      # everything, at reduced session counts
//	experiments -scenario my.json        # a JSON-defined experiment
//	experiments -dump fig5.6             # export a built-in as JSON
//
// `wlgen scenario list` prints every registered name; -run also accepts
// "all", which runs them in that order, whole scenarios fanned out across
// -parallel goroutines. Output is byte-identical at any -parallel setting.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"uswg/internal/scenario"
)

func main() {
	var (
		name     = flag.String("run", "all", "experiment to run (see package comment)")
		scFile   = flag.String("scenario", "", "run a declarative scenario JSON file instead of -run")
		dump     = flag.String("dump", "", "print the named built-in scenario as JSON and exit")
		scale    = flag.Float64("scale", 1, "session-count multiplier (e.g. 0.1 for a quick look)")
		seed     = flag.Uint64("seed", 0, "override the RNG seed (0 keeps the default)")
		parallel = flag.Int("parallel", 0, "concurrent runs per sweep (0 = GOMAXPROCS; results are identical at any setting)")
	)
	flag.Parse()

	if *dump != "" {
		sc, err := lookup(*dump)
		if err == nil {
			err = sc.Encode(os.Stdout)
		}
		exitOn(err)
		return
	}

	var scs []*scenario.Scenario
	switch {
	case *scFile != "":
		sc, err := scenario.Load(*scFile)
		exitOn(err)
		scs = []*scenario.Scenario{sc}
	case strings.ToLower(*name) == "all":
		for _, n := range scenario.Names() {
			sc, _ := scenario.Lookup(n)
			scs = append(scs, sc)
		}
	default:
		sc, err := lookup(*name)
		exitOn(err)
		scs = []*scenario.Scenario{sc}
	}

	// Whole scenarios fan out like sweep points: each derives its seeds from
	// opts alone and writes only its own slot, so output keeps Names() order.
	ctx := context.Background()
	opts := scenario.Options{Seed: *seed, Scale: *scale, Parallelism: *parallel}
	results := make([]scenario.Result, len(scs))
	exitOn(scenario.ForEachPoint(ctx, opts, len(scs), func(i int) error {
		res, err := scenario.Run(ctx, scs[i], opts)
		if err != nil {
			return fmt.Errorf("%s: %w", scs[i].Name, err)
		}
		results[i] = res
		return nil
	}))
	for i, r := range results {
		if i > 0 {
			fmt.Println()
		}
		fmt.Println(r.Render())
	}
}

// lookup resolves a registered scenario name or alias, case-insensitively.
func lookup(name string) (*scenario.Scenario, error) {
	sc, ok := scenario.Lookup(strings.ToLower(name))
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (try one of %s)", name, strings.Join(scenario.Names(), ", "))
	}
	return sc, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
