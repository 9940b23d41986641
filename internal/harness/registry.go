package harness

import (
	"fmt"
	"path"
	"sort"
	"sync"

	"optanestudy/internal/sim"
)

// Scenario is one runnable, registered benchmark. Run executes a single
// trial: it builds its own fresh simulated platform from the spec (so
// trials are isolated and deterministic) and returns the raw measurements;
// the driver derives rates and aggregates across trials.
type Scenario struct {
	// Name is the registry key, conventionally "family/scenario"
	// (e.g. "lattester/seq-read", "fio/rand-write").
	Name string
	// Doc is a one-line description shown by CLI -list.
	Doc string
	// Defaults supplies values for Spec fields left zero.
	Defaults Defaults
	// Run executes one trial.
	Run func(spec Spec) (Trial, error)
}

// Defaults are the scenario-provided values for unset Spec fields.
type Defaults struct {
	Threads  int
	Socket   int
	Duration sim.Time
	Ops      int
	Seed     uint64
	Params   map[string]string
}

var registry = struct {
	sync.RWMutex
	scenarios map[string]Scenario
}{scenarios: make(map[string]Scenario)}

// Register adds a scenario to the global registry. It panics on an empty
// name, a nil Run, or a duplicate registration — all programmer errors at
// package init time.
func Register(sc Scenario) {
	if sc.Name == "" {
		panic("harness: Register with empty scenario name")
	}
	if sc.Run == nil {
		panic("harness: Register " + sc.Name + " with nil Run")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.scenarios[sc.Name]; dup {
		panic("harness: duplicate scenario " + sc.Name)
	}
	registry.scenarios[sc.Name] = sc
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	registry.RLock()
	defer registry.RUnlock()
	sc, ok := registry.scenarios[name]
	return sc, ok
}

// Names returns every registered scenario name, sorted.
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	names := make([]string, 0, len(registry.scenarios))
	for name := range registry.scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Match returns the scenarios whose names match any of the glob patterns
// (path.Match syntax; an exact name is its own match), sorted by name. A
// pattern that matches nothing is an error, as is a malformed pattern.
func Match(patterns ...string) ([]Scenario, error) {
	registry.RLock()
	defer registry.RUnlock()
	picked := make(map[string]bool)
	for _, pat := range patterns {
		found := false
		for name := range registry.scenarios {
			ok, err := path.Match(pat, name)
			if err != nil {
				return nil, fmt.Errorf("harness: bad pattern %q: %v", pat, err)
			}
			if ok || name == pat {
				picked[name] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("harness: no scenario matches %q", pat)
		}
	}
	names := make([]string, 0, len(picked))
	for name := range picked {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Scenario, len(names))
	for i, name := range names {
		out[i] = registry.scenarios[name]
	}
	return out, nil
}
