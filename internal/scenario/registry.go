package scenario

import (
	"fmt"
	"strings"
	"sync"
)

// The registry maps scenario names (and aliases) to registered scenarios.
// Built-ins register at init; callers may register their own before running
// by name. Registered scenarios are treated as immutable — the engine copies
// what it mutates per point.
var (
	regMu    sync.RWMutex
	registry = map[string]*Scenario{}
	aliases  = map[string]string{}
	order    []string
)

// All is the name that selects every registered scenario (`wlgen scenario
// run -name all`), so no scenario or alias may take it, in any case.
const All = "all"

// Register validates and adds a scenario under its name and aliases.
func Register(sc *Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	for _, n := range append([]string{sc.Name}, sc.Aliases...) {
		if strings.EqualFold(n, All) {
			return fmt.Errorf("%w: %q is reserved for running every scenario", ErrScenario, n)
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[sc.Name]; dup {
		return fmt.Errorf("%w: duplicate scenario %q", ErrScenario, sc.Name)
	}
	if _, dup := aliases[sc.Name]; dup {
		return fmt.Errorf("%w: scenario name %q shadows an alias", ErrScenario, sc.Name)
	}
	for _, a := range sc.Aliases {
		if _, dup := registry[a]; dup {
			return fmt.Errorf("%w: alias %q shadows a scenario", ErrScenario, a)
		}
		if _, dup := aliases[a]; dup {
			return fmt.Errorf("%w: duplicate alias %q", ErrScenario, a)
		}
	}
	registry[sc.Name] = sc
	for _, a := range sc.Aliases {
		aliases[a] = sc.Name
	}
	order = append(order, sc.Name)
	return nil
}

// MustRegister registers or panics — for the built-ins.
func MustRegister(sc *Scenario) {
	if err := Register(sc); err != nil {
		panic(err)
	}
}

// Lookup resolves a name or alias to its registered scenario.
func Lookup(name string) (*Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	if target, ok := aliases[name]; ok {
		name = target
	}
	sc, ok := registry[name]
	return sc, ok
}

// Names lists registered scenario names in registration order (the
// evaluation order for the built-ins).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(order))
	copy(out, order)
	return out
}
