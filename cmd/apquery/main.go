// Command apquery is the forensics side-tool: ad-hoc lookups over a store
// without writing a BDL script. Analysts use it to scope an object before
// excluding it ("the blue team confirmed there were no suspicious
// modifications to the dll files" — Section IV-D) and to eyeball a host's
// activity around a timestamp.
//
// Usage:
//
//	apquery -store ./data -stats
//	apquery -store ./data -objects "java"            # objects matching a pattern
//	apquery -store ./data -events "java.exe" -n 20   # events touching matches
//	apquery -store ./data -around "03/02/2019:14:02:28" -n 10
//
// Combining -stats with a query (-objects, -events, -around) additionally
// prints the store's telemetry snapshot for that query — lookups issued, rows
// examined, buckets pruned — as JSON on stderr, so an analyst can see what a
// lookup cost before turning it into a BDL heuristic.
//
// apquery exits as soon as it has printed, so it serves no HTTP endpoints;
// -stats is its telemetry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"aptrace"
	"aptrace/internal/bdl"
	"aptrace/internal/event"
)

func main() {
	var (
		storeDir = flag.String("store", "", "store directory (required)")
		stats    = flag.Bool("stats", false, "print store statistics")
		objects  = flag.String("objects", "", "list objects whose name matches the substring")
		events   = flag.String("events", "", "show events touching objects matching the substring")
		around   = flag.String("around", "", "show events around a BDL timestamp (MM/DD/YYYY:HH:MM:SS)")
		n        = flag.Int("n", 20, "row limit")
	)
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "apquery: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	// With -stats alongside a query, a telemetry registry observes the store
	// so the per-query work counters can be dumped afterwards.
	var reg *aptrace.Telemetry
	var opts []aptrace.StoreOption
	if *stats {
		reg = aptrace.NewTelemetry()
		opts = append(opts, aptrace.WithTelemetry(reg))
	}
	st, err := aptrace.OpenStore(*storeDir, nil, opts...)
	if err != nil {
		fatal(err)
	}

	switch {
	case *objects != "":
		printObjects(st, *objects, *n)
	case *events != "":
		printEvents(st, *events, *n)
	case *around != "":
		printAround(st, *around, *n)
	case *stats:
		printStats(st)
		return
	default:
		fmt.Fprintln(os.Stderr, "apquery: pick one of -stats, -objects, -events, -around")
		os.Exit(2)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "\ntelemetry snapshot:")
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "apquery: telemetry snapshot:", err)
		}
	}
}

func printStats(st *aptrace.Store) {
	s := st.Stats()
	min, max, _ := st.TimeRange()
	fmt.Printf("events:   %d\n", s.Events)
	fmt.Printf("objects:  %d\n", s.Objects)
	fmt.Printf("range:    %s .. %s (%s)\n",
		event.Event{Time: min}.When().Format("2006-01-02 15:04:05"),
		event.Event{Time: max}.When().Format("2006-01-02 15:04:05"),
		st.Duration().Round(1e9))
	// Type breakdown and heavy hitters.
	var nProc, nFile, nSock int
	type hot struct {
		id  aptrace.ObjID
		deg int
	}
	var hots []hot
	for i, o := range st.Objects() {
		switch o.Type {
		case event.ObjProcess:
			nProc++
		case event.ObjFile:
			nFile++
		case event.ObjSocket:
			nSock++
		}
		if d := st.InDegree(aptrace.ObjID(i)); d > 0 {
			hots = append(hots, hot{aptrace.ObjID(i), d})
		}
	}
	fmt.Printf("types:    %d processes, %d files, %d sockets\n", nProc, nFile, nSock)
	// Stats above are whole-store totals regardless of layout; with a
	// sharded store, also show how the log is spread across shards.
	if infos := st.ShardInfos(); len(infos) > 1 {
		fmt.Printf("shards:   %d (host×time epoch %ds)\n", len(infos), st.ShardEpochSeconds())
		for _, si := range infos {
			if si.Events == 0 {
				fmt.Printf("  shard %2d  empty\n", si.Shard)
				continue
			}
			fmt.Printf("  shard %2d  %8d events, %4d hosts, %s .. %s\n",
				si.Shard, si.Events, si.Hosts,
				event.Event{Time: si.MinTime}.When().Format("2006-01-02 15:04:05"),
				event.Event{Time: si.MaxTime}.When().Format("2006-01-02 15:04:05"))
		}
	}
	sort.Slice(hots, func(i, j int) bool { return hots[i].deg > hots[j].deg })
	fmt.Println("heaviest objects by fan-in (dependency-explosion candidates):")
	for i, h := range hots {
		if i == 10 {
			break
		}
		fmt.Printf("  %8d  %s\n", h.deg, st.Object(h.id).Label())
	}
}

func matchObjects(st *aptrace.Store, pat string) []aptrace.ObjID {
	needle := strings.ToLower(pat)
	var out []aptrace.ObjID
	for i, o := range st.Objects() {
		if strings.Contains(strings.ToLower(o.Label()), needle) {
			out = append(out, aptrace.ObjID(i))
		}
	}
	return out
}

func printObjects(st *aptrace.Store, pat string, n int) {
	ids := matchObjects(st, pat)
	fmt.Printf("%d objects match %q:\n", len(ids), pat)
	for i, id := range ids {
		if i == n {
			fmt.Printf("  ... and %d more\n", len(ids)-n)
			break
		}
		o := st.Object(id)
		fmt.Printf("  %-60s in-degree %d, out-degree %d\n",
			o.Label(), st.InDegree(id), st.OutDegree(id))
	}
}

func printEvents(st *aptrace.Store, pat string, n int) {
	ids := map[aptrace.ObjID]bool{}
	for _, id := range matchObjects(st, pat) {
		ids[id] = true
	}
	if len(ids) == 0 {
		fmt.Printf("no objects match %q\n", pat)
		return
	}
	shown := 0
	min, max, _ := st.TimeRange()
	st.Scan(min, max+1, func(e aptrace.Event) bool {
		if !ids[e.Subject] && !ids[e.Object] {
			return true
		}
		printEvent(st, e)
		shown++
		return shown < n
	})
	fmt.Fprintf(os.Stderr, "%d events shown (limit %d)\n", shown, n)
}

func printAround(st *aptrace.Store, ts string, n int) {
	at, err := bdl.ParseTime(ts)
	if err != nil {
		fatal(err)
	}
	shown := 0
	st.Scan(at-int64(n), at+int64(n)+1, func(e aptrace.Event) bool {
		printEvent(st, e)
		shown++
		return shown < 2*n
	})
	fmt.Fprintf(os.Stderr, "%d events within ±%ds of %s\n", shown, n, ts)
}

func printEvent(st *aptrace.Store, e aptrace.Event) {
	fmt.Printf("%s  #%d  %-40s --%s(%d)--> %s\n",
		e.When().Format("01-02 15:04:05"), e.ID,
		st.Object(e.Subject).Label(), e.Action, e.Amount,
		st.Object(e.Object).Label())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apquery:", err)
	os.Exit(1)
}
