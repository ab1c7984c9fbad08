// Command apbench regenerates the paper's evaluation (Section IV): every
// table and figure, over a freshly generated synthetic enterprise dataset
// bound to the simulated query-latency clock. Every figure it reports is
// charged cost on that clock; real-clock measurements are the repository
// benchmark's (bench/, BENCHMARK.json) and the Go benchmarks'.
//
// Usage:
//
//	apbench [-exp all|severity|fig4|table1|table2|fig6|refiner|ablation-k|ablation-policy]
//	        [-hosts 12] [-days 10] [-density 1.5] [-seed 1] [-samples 200] [-cap 2h] [-k 8]
//	        [-parallel 1] [-json dir]
//
// -exp takes a comma-separated list; an unknown name fails before the dataset
// is generated. With -json, each experiment's structured result is also
// written as BENCH_<exp>.json in the given directory. With -parallel N, each
// experiment fans its sampled starting events across N concurrent analyses
// over shared store views; results are collected in sample order, so the
// tables are byte-identical to a serial run (-parallel 0 uses all cores).
// Recording a run — its decision log, Chrome trace, SLO report, metrics and
// profiles — is aptrace's job (-explain, -timeline, -metrics, -pprof).
//
// Paper mapping:
//
//	severity        -> Section IV-B1 (how common dependency explosion is)
//	fig4            -> Figure 4      (graph size vs execution time limit)
//	table1          -> Table I       (five attack cases, No Opt vs Opt)
//	table2          -> Table II      (inter-update waiting time)
//	fig6            -> Figure 6      (CPU/memory during a long analysis)
//	refiner         -> Section III-B3 (changing intermediate points:
//	                   re-propagation over the cached graph vs a re-run)
//	ablation-*      -> design-choice ablations from DESIGN.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aptrace"
	"aptrace/internal/experiments"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment(s) to run, comma separated: all, "+strings.Join(names(), ", "))
		hosts    = flag.Int("hosts", 12, "workstations in the dataset")
		days     = flag.Int("days", 10, "days of history")
		density  = flag.Float64("density", 1.5, "background activity scale")
		seed     = flag.Int64("seed", 1, "dataset seed")
		samples  = flag.Int("samples", 200, "random starting events (the paper uses 200)")
		cap_     = flag.Duration("cap", 2*time.Hour, "execution cap for unoptimized runs")
		k        = flag.Int("k", aptrace.DefaultWindows, "execution-window count")
		parallel = flag.Int("parallel", 1, "concurrent analyses per experiment (0 = all cores)")
		jsonDir  = flag.String("json", "", "also write each experiment's result as BENCH_<exp>.json into this directory")
	)
	flag.Parse()
	selected, err := resolve(*exp)
	if err != nil {
		fatal(err)
	}
	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("generating dataset: %d hosts, %d days, density %.1f, seed %d ...\n",
		*hosts, *days, *density, *seed)
	wall := time.Now()
	env, err := experiments.NewEnv(aptrace.WorkloadConfig{
		Seed: *seed, Hosts: *hosts, Days: *days, Density: *density,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset ready: %d events, %d objects, %d attacks (%.1fs wall)\n",
		env.Dataset.Store.NumEvents(), env.Dataset.Store.NumObjects(),
		len(env.Dataset.Attacks), time.Since(wall).Seconds())

	cfg := experiments.Config{Samples: *samples, Cap: *cap_, Windows: *k, Seed: 42, Parallel: *parallel}
	if *parallel > 1 {
		// Stderr, so stdout stays byte-comparable against a serial run.
		fmt.Fprintf(os.Stderr, "parallel analyses per experiment: %d\n", *parallel)
	}

	for _, e := range selected {
		wall := time.Now()
		res, err := e.run(env, cfg, os.Stdout)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Printf("[%s done in %.1fs wall]\n", e.name, time.Since(wall).Seconds())
		if *jsonDir != "" {
			path := filepath.Join(*jsonDir, "BENCH_"+e.name+".json")
			if err := writeJSON(path, res); err != nil {
				fatal(fmt.Errorf("%s: %w", e.name, err))
			}
			fmt.Printf("[%s rows written to %s]\n", e.name, path)
		}
	}
}

// experiment is one -exp name and the runner behind it. Every runner returns
// its structured result so -json can persist the machine-readable rows next to
// the printed tables.
type experiment struct {
	name string
	run  runFunc
}

type runFunc = func(*experiments.Env, experiments.Config, io.Writer) (any, error)

// order is every experiment, in the order -exp all runs them.
var order = []experiment{
	{"severity", runner(experiments.RunSeverity)},
	{"fig4", runner(experiments.RunFig4)},
	{"table1", runner(experiments.RunTable1)},
	{"table2", runner(experiments.RunTable2)},
	{"fig6", runner(experiments.RunFig6)},
	{"refiner", runner(experiments.RunRefiner)},
	{"ablation-k", runner(experiments.RunAblationK)},
	{"ablation-policy", runner(experiments.RunAblationPolicy)},
}

// runner erases a Run function's result type.
func runner[T any](f func(*experiments.Env, experiments.Config, io.Writer) (T, error)) runFunc {
	return func(env *experiments.Env, cfg experiments.Config, w io.Writer) (any, error) {
		return f(env, cfg, w)
	}
}

func names() []string {
	out := make([]string, len(order))
	for i, e := range order {
		out[i] = e.name
	}
	return out
}

// resolve maps the -exp value to the experiments it names, so a misspelt name
// fails before any dataset is generated or experiment run.
func resolve(exp string) ([]experiment, error) {
	if exp == "all" {
		return order, nil
	}
	var selected []experiment
next:
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		for _, e := range order {
			if e.name == name {
				selected = append(selected, e)
				continue next
			}
		}
		return nil, fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(names(), ", "))
	}
	return selected, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apbench:", err)
	os.Exit(1)
}
