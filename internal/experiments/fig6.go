package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aptrace/internal/core"
	"aptrace/internal/graph"
)

// Fig6Sample is one point of Figure 6: resource usage at a minute of
// (simulated) analysis time.
type Fig6Sample struct {
	Minute  int
	CPUPct  float64 // process CPU since the previous sample, % of one core
	MemPct  float64 // heap in use, % of total system memory
	HeapMB  float64
	Edges   int
	Windows int
}

// Fig6Result is the resource-usage series of one long responsive analysis.
type Fig6Result struct {
	Samples []Fig6Sample
}

// RunFig6 measures real process CPU and memory while the executor performs a
// long responsive analysis (the first attack's alert, no heuristics, capped
// at cfg.Cap simulated time). Samples are taken whenever analysis time
// crosses a simulated minute boundary. CPU is read from /proc/self/stat
// (Solaris-mode-like: percent of a single core), memory from runtime
// heap statistics against the machine total — mirroring what the paper
// plotted for its Java process.
func RunFig6(env *Env, cfg Config, w io.Writer) (*Fig6Result, error) {
	if len(env.Dataset.Attacks) == 0 {
		return nil, fmt.Errorf("fig6 needs at least one injected attack")
	}
	alert, ok := env.Dataset.Store.EventByID(env.Dataset.Attacks[0].AlertID)
	if !ok {
		return nil, fmt.Errorf("alert event missing")
	}

	res := &Fig6Result{}
	start := env.Clock.Now()
	lastMinute := 0
	startCPU := cpuTime()
	startWall := time.Now()
	totalMem := totalMemBytes()

	sample := func(minute, edges, windows int) {
		// Cumulative process CPU over cumulative wall time: the steady
		// utilization figure the paper plots (its sampling interval is
		// minutes of real time; ours compresses those into milliseconds,
		// where instantaneous deltas are below the scheduler's
		// measurement granularity).
		var cpuPct float64
		if dw := time.Since(startWall); dw > 0 {
			cpuPct = 100 * float64(cpuTime()-startCPU) / float64(dw)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		memPct := 0.0
		if totalMem > 0 {
			memPct = 100 * float64(ms.HeapInuse) / float64(totalMem)
		}
		res.Samples = append(res.Samples, Fig6Sample{
			Minute: minute, CPUPct: cpuPct, MemPct: memPct,
			HeapMB: float64(ms.HeapInuse) / (1 << 20), Edges: edges, Windows: windows,
		})
	}
	sample(0, 0, 0) // analysis start: includes dataset/compile footprint

	plan := wildcardPlan(cfg.Cap)
	var x *core.Executor
	x, err := core.New(env.Dataset.Store, plan, core.Options{
		Windows: cfg.Windows,
		OnUpdate: func(u graph.Update) {
			minute := int(u.At.Sub(start) / time.Minute)
			if minute > lastMinute {
				lastMinute = minute
				sample(minute, u.Edges, 0)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	out, err := x.RunUnchecked(alert)
	if err != nil {
		return nil, err
	}
	sample(lastMinute+1, out.Graph.NumEdges(), out.Windows)

	header(w, "Figure 6: CPU and Memory Usage During Responsive Analysis")
	fmt.Fprintf(w, "%-8s %8s %8s %10s %8s\n", "minute", "cpu%", "mem%", "heap(MB)", "edges")
	for i, s := range res.Samples {
		if s.Minute%5 != 0 && i != len(res.Samples)-1 {
			continue // print every fifth minute; the result keeps all samples
		}
		fmt.Fprintf(w, "%-8d %8.1f %8.2f %10.1f %8d\n", s.Minute, s.CPUPct, s.MemPct, s.HeapMB, s.Edges)
	}
	fmt.Fprintln(w, "(paper: memory peaks ~15% during startup then settles ~3%; CPU 3-11%)")
	return res, nil
}

// cpuTime reads the process's cumulative user+system CPU time. It returns 0
// if /proc is unavailable (non-Linux), degrading the CPU column to zero
// rather than failing the experiment.
func cpuTime() time.Duration {
	raw, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	// Field 14 (utime) and 15 (stime) in clock ticks, after the comm field
	// which may contain spaces and is parenthesized.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	const hz = 100 // USER_HZ on effectively every Linux build
	return time.Duration(utime+stime) * time.Second / hz
}

// totalMemBytes reads MemTotal from /proc/meminfo; 0 if unavailable.
func totalMemBytes() int64 {
	raw, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "MemTotal:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				if err == nil {
					return kb << 10
				}
			}
		}
	}
	return 0
}
