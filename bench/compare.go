package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is BENCHMARK.json: the single place metric names, units, directions
// and bounds are defined. -compare and -repeat read their bounds from it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// resultSet is one run of every workload on one seed.
type resultSet struct {
	Seed    int64             `json:"seed"`
	Scale   string            `json:"scale"`
	Seconds float64           `json:"seconds"`
	Results map[string]result `json:"results"` // by workload
}

func writeResults(path string, sets []resultSet) error {
	if path == "" {
		return nil
	}
	buf, err := json.MarshalIndent(sets, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readResults(path string) ([]resultSet, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sets []resultSet
	if err := json.Unmarshal(buf, &sets); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return sets, nil
}

// runSet runs every workload, each in a process of its own (so peak RSS and
// heap state belong to one workload), and collects their result lines.
func runSet(seed int64, seconds float64, trace bool, scale string, log io.Writer) (resultSet, error) {
	set := resultSet{Seed: seed, Scale: scale, Seconds: seconds, Results: map[string]result{}}
	self, err := os.Executable()
	if err != nil {
		return set, err
	}
	for _, name := range workloadNames {
		t := "0"
		if trace {
			t = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t, "-scale", scale)
		cmd.Stderr = os.Stderr
		outBuf, err := cmd.Output()
		if err != nil {
			return set, fmt.Errorf("%s: %w", name, err)
		}
		text := strings.TrimSpace(string(outBuf))
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Fprintln(log, text[:i])
		}
		res, err := resultLine(text)
		if err != nil {
			return set, fmt.Errorf("%s: result line: %w", name, err)
		}
		set.Results[name] = res
	}
	return set, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction (negative = better).
func worseBy(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// medians folds result sets into per-workload per-metric medians and
// failed shares.
func medians(sets []resultSet) (vals map[string]map[string]float64, failedShare map[string]float64) {
	all := map[string]map[string][]float64{}
	att, fail := map[string]float64{}, map[string]float64{}
	for _, s := range sets {
		for wl, r := range s.Results {
			if all[wl] == nil {
				all[wl] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				all[wl][name] = append(all[wl][name], v.Value)
			}
			att[wl] += float64(r.Attempted)
			fail[wl] += float64(r.Failed)
		}
	}
	vals = map[string]map[string]float64{}
	failedShare = map[string]float64{}
	for wl, ms := range all {
		vals[wl] = map[string]float64{}
		for name, v := range ms {
			vals[wl][name] = median(v)
		}
		if att[wl] > 0 {
			failedShare[wl] = fail[wl] / att[wl]
		}
	}
	return vals, failedShare
}

// compareFiles is the regression gate: for every workload and end-to-end
// metric the new median may be worse than the old by at most the metric's
// bound, and no workload may fail a larger share of its operations.
func compareFiles(sp *spec, oldPath, newPath string, w io.Writer) error {
	oldSets, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newSets, err := readResults(newPath)
	if err != nil {
		return err
	}
	oldV, oldF := medians(oldSets)
	newV, newF := medians(newSets)
	regressions := 0
	for _, wl := range workloadNames {
		if oldV[wl] == nil || newV[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-24s %14s %14s %9s %7s\n", wl, "metric", "old", "new", "worse by", "bound")
		for _, m := range sp.EndToEnd {
			a, okA := oldV[wl][m.Name]
			b, okB := newV[wl][m.Name]
			if !okA || !okB {
				continue
			}
			d := worseBy(m, a, b)
			verdict := ""
			if d > m.Bound {
				verdict = "  REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "  %-24s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
		verdict := ""
		if newF[wl] > oldF[wl] {
			verdict = "  REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "  %-24s %14.4f %14.4f%s\n", "failed share", oldF[wl], newF[wl], verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s) beyond the bounds", regressions)
	}
	fmt.Fprintln(w, "\nno regression beyond the bounds")
	return nil
}

// repeatSet runs the set n times on seeds seed..seed+n-1 and checks that each
// end-to-end metric's spread (interquartile distance over median, as the
// driver computes it) stays within the metric's bound. setup_s is printed
// but not gated, as in the driver.
func repeatSet(sp *spec, n int, seed int64, seconds float64, scale, out string, w io.Writer) error {
	var sets []resultSet
	for i := 0; i < n; i++ {
		set, err := runSet(seed+int64(i), seconds, false, scale, io.Discard)
		if err != nil {
			return err
		}
		for wl, r := range set.Results {
			if !r.Correct {
				return fmt.Errorf("%s seed %d: incorrect (%d of %d operations failed)", wl, set.Seed, r.Failed, r.Attempted)
			}
		}
		fmt.Fprintf(w, "seed %d done\n", set.Seed)
		sets = append(sets, set)
	}
	if err := writeResults(out, sets); err != nil {
		return err
	}
	wide := 0
	for _, wl := range workloadNames {
		fmt.Fprintf(w, "\n%s\n  %-24s %14s %9s %7s\n", wl, "metric", "median", "spread", "bound")
		for _, m := range sp.EndToEnd {
			var vals []float64
			for _, s := range sets {
				vals = append(vals, s.Results[wl].Metrics[m.Name].Value)
			}
			sprd := spread(vals)
			verdict := ""
			if sprd > m.Bound && m.Name != "setup_s" {
				verdict = "  TOO WIDE"
				wide++
			}
			fmt.Fprintf(w, "  %-24s %14.4f %8.1f%% %6.0f%%%s\n", m.Name, median(vals), 100*sprd, 100*m.Bound, verdict)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d metric(s) spread wider than their bound", wide)
	}
	return nil
}

// resultLine parses the last line of a run's output.
func resultLine(out string) (result, error) {
	var res result
	last := strings.TrimSpace(out)
	if i := strings.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	err := json.Unmarshal([]byte(last), &res)
	return res, err
}
