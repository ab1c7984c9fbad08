// Command bench is the repository benchmark: five workloads on the real
// clock, from batch triage to the live ingest→graph pipeline, with a traced
// run that drives every layer in isolation. BENCHMARK.json at the repository
// root names it; README.md in this directory explains the workloads and the
// metrics.
//
//	bash bench/run.sh --workload triage_flat --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -all -out results.json        every workload, one process each
//	bash bench/run.sh -repeat 10                    ten seeds, spreads against the bounds
//	bash bench/run.sh -compare old.json new.json    regression gate
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

//go:embed digests.json
var digestsJSON []byte

// buildDir is where everything the benchmark writes goes, relative to the
// working directory (the checkout root).
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long the timed section measures")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, trace JSON and the where-the-time-goes table")
		scale    = flag.String("scale", "full", "input sizes: full or smoke")
		all      = flag.Bool("all", false, "run every workload, each in its own process")
		repeat   = flag.Int("repeat", 0, "run the set N times on N seeds and check each metric's spread against its bound")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
		out      = flag.String("out", "", "with -all or -repeat: write the results to this file")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark definition (metric bounds for -compare and -repeat)")
	)
	flag.Parse()
	var err error
	var sp *spec
	if *compare || *repeat > 0 {
		sp, err = loadSpec(*specPath)
	}
	switch {
	case err != nil:
	case *compare && flag.NArg() != 2:
		err = fmt.Errorf("-compare wants two result files")
	case *compare:
		err = compareFiles(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
	case *repeat > 0:
		err = repeatSet(sp, *repeat, *seed, *seconds, *scale, *out, os.Stdout)
	case *all:
		var set resultSet
		if set, err = runSet(*seed, *seconds, *trace != 0, *scale, os.Stdout); err == nil {
			err = writeResults(*out, []resultSet{set})
		}
	default:
		err = runWorkload(*workload, *seed, *seconds, *trace != 0, *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload is the driver's entry: one workload, one process, the report
// on standard output with the result line last.
func runWorkload(workload string, seed int64, seconds float64, trace bool, scale string) error {
	c, err := newConfig(workload, seed, seconds, trace, scale, os.Stdout)
	if err != nil {
		return err
	}
	defer os.RemoveAll(c.TmpDir)
	rep, err := runOne(c)
	if err != nil {
		return err
	}
	return rep.print(c, os.Stdout)
}

// newConfig resolves one run's settings and creates its scratch directory.
func newConfig(workload string, seed int64, seconds float64, trace bool, scale string, log io.Writer) (*config, error) {
	sz, ok := scales[scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want full or smoke)", scale)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	c := &config{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Scale: scale, sz: sz, Log: log}
	// Load generators never outnumber the cores: fleets, daemon workers and
	// client connections all use this width.
	c.Workers = runtime.NumCPU()
	if c.Workers > 4 {
		c.Workers = 4
	}
	if err := json.Unmarshal(digestsJSON, &c.Digests); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "tmp-")
	if err != nil {
		return nil, err
	}
	c.TmpDir = tmp
	return c, nil
}

func runOne(c *config) (*report, error) {
	if c.Trace {
		return runTraced(c)
	}
	return runEndToEnd(c)
}

// tracePath is where a traced run writes its spans.
func tracePath(c *config) string {
	return filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.json", c.Workload, c.Seed))
}

// commit is the VCS revision the binary was built from, when the build could
// see one (the driver's checkouts are not repositories).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
