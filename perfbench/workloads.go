package main

import (
	"embed"
	"fmt"
	"time"

	"siteselect/internal/config"
	"siteselect/internal/scenario"
)

//go:embed workloads/*.rts
var scenarioFiles embed.FS

// workload is one fixed input the benchmark runs: a configuration built
// from a seed plus the mechanisms its outputs must show.
type workload struct {
	name string
	// compile builds the run's configuration and names its engine
	// (scenario.SystemLS, SystemCS or SystemCEOCC) from the seed.
	compile func(seed int64) (config.Config, string, error)
	// systems is how many independent systems one pass runs and pools,
	// each from its own seed derived from the benchmark's (1 when 0).
	systems int
	// fires lists the mechanism counters (see mechanisms) that must be
	// positive on this workload. The batch and replica counters must
	// read 0 on any workload that does not list them.
	fires []string
}

// The four workloads. Why each was chosen, and which layers it
// exercises or bypasses, is recorded in README.md.
var workloads = []*workload{
	{
		name:    "paper-ls",
		compile: fromConfig(scenario.SystemLS, 2*time.Hour, func() config.Config { return config.Default(100, 0.05) }),
		fires:   []string{"forward.hops", "loadshare.shipped"},
	},
	{
		name:    "hotspot-sharded",
		compile: fromScenario("workloads/hotspot-sharded.rts"),
		// Contention on the drifting hot set makes one system's outcome
		// vary by several percent from seed to seed however long it
		// runs, so a pass pools twelve shorter systems.
		systems: 12,
		fires:   []string{"batch.flushes", "replica.installs", "replica.sheds"},
	},
	{
		name:    "swarm-50k",
		compile: fromScenario("workloads/swarm-50k.rts"),
	},
	{
		name:    "central-occ",
		compile: fromConfig(scenario.SystemCEOCC, 3*time.Hour, func() config.Config { return config.DefaultCentralized(40, 0.05) }),
	},
}

// seeds returns the seed of each system of a pass.
func (w *workload) seeds(seed int64) []int64 {
	if w.systems <= 1 {
		return []int64{seed}
	}
	out := make([]int64, w.systems)
	for i := range out {
		out[i] = config.CellSeed(seed, int64(i))
	}
	return out
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fromConfig runs a Table-1 configuration from base for d of simulated
// time on the given engine.
func fromConfig(system string, d time.Duration, base func() config.Config) func(int64) (config.Config, string, error) {
	return func(seed int64) (config.Config, string, error) {
		cfg := base()
		cfg.Duration = d
		cfg.Seed = config.NormalizeSeed(seed)
		return cfg, system, nil
	}
}

// fromScenario parses and compiles an embedded scenario file with its
// seed replaced by the benchmark's.
func fromScenario(file string) func(int64) (config.Config, string, error) {
	return func(seed int64) (config.Config, string, error) {
		src, err := scenarioFiles.ReadFile(file)
		if err != nil {
			return config.Config{}, "", err
		}
		s, err := scenario.Parse(file, string(src))
		if err != nil {
			return config.Config{}, "", err
		}
		s.Seed = seed
		c, err := scenario.Compile(s)
		if err != nil {
			return config.Config{}, "", fmt.Errorf("compile %s: %w", file, err)
		}
		return c.Config, c.System, nil
	}
}
