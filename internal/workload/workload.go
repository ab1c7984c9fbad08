// Package workload generates the synthetic enterprise dataset that stands in
// for the paper's production deployment (256 monitored hosts, 538M events per
// day collected through Windows ETW and Linux Audit into PostgreSQL).
//
// The generator is deterministic (seeded) and reproduces the statistical
// properties that make backtracking analysis hard in the paper's environment:
//
//   - heavy-hitter objects with enormous in-degree (service logs, shell
//     history, explorer.exe's metadata files), the cause of dependency
//     explosion;
//   - deep ancestry chains (services.exe -> svchost -> apps; explorer ->
//     office apps -> helpers);
//   - temporal locality: activity happens in bursts and sessions, and a
//     process mostly touches objects that were recently active;
//   - dll/shared-library fan-in: every application load pulls dozens of
//     library files, occasionally rewritten by an updater so that naive
//     "exclude all dlls" shortcuts are not automatically safe.
//
// On top of the background noise, Inject* methods plant the five attack
// scenarios of Table I, returning ground truth (alert event, root cause,
// the full causal chain) and the scripted BDL refinement sequence a blue-team
// analyst would apply (Section IV-D).
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"aptrace/internal/event"
	"aptrace/internal/store"
)

// Config controls dataset generation.
type Config struct {
	// Seed makes the dataset reproducible.
	Seed int64
	// Hosts is the number of monitored workstations. Server hosts
	// (database, file server, web server) are added on top.
	Hosts int
	// Days of recorded history.
	Days int
	// Density scales background activity; 1.0 produces roughly 2,000
	// events per workstation-day, matching the shape (not the absolute
	// volume) of the paper's 538M/day over 256 hosts.
	Density float64
	// Attacks selects which of the five scenarios to inject; nil injects
	// all of them. Valid names: "phishing", "excel-macro", "shellshock",
	// "cheating-student", "wget-gcc".
	Attacks []string
	// Start is the first day of history; the zero value means
	// 2019-03-01 00:00 UTC (the period the paper's cases fall into).
	Start time.Time
	// Shards partitions the store by host × time epoch (store.WithShards).
	// 0 or 1 keeps the flat single-shard layout; more than store.MaxShards
	// is an error. Generation streams events directly into their shards, so
	// no single slice ever holds the whole dataset, and Seal runs per shard
	// in parallel.
	Shards int
}

// Dataset is a generated enterprise history: a sealed store plus ground
// truth for every injected attack.
type Dataset struct {
	Store *store.Store
	// SealWall is the wall-clock duration of the dataset's Seal call —
	// real CPU, never simulated cost. apgen prints it and the repository
	// benchmark reports it as store.seal_*_s.
	SealWall time.Duration
	Attacks  []Attack
	Config   Config
}

// Attack is the ground truth of one injected scenario.
type Attack struct {
	// Name is the scenario identifier, Title the Table I row description.
	Name, Title string
	// Host is the host where the alert is raised.
	Host string
	// AlertID is the anomaly event a detector would flag — the starting
	// point of backtracking analysis.
	AlertID event.EventID
	// RootCause is the object key of the penetration point; backtracking
	// succeeds when this node appears in the dependency graph.
	RootCause event.ObjectKey
	// ChainIDs are the ground-truth causal events from the alert back to
	// the root cause.
	ChainIDs []event.EventID
	// Scripts are the BDL versions an analyst applies in sequence
	// (v1, v2, ...), mirroring the narrative in Section IV-D. The last
	// version carries every heuristic.
	Scripts []string
	// Heuristics is the number of pruning heuristics in the final script
	// (the "# Heuristics" column of Table I).
	Heuristics int
}

// DefaultConfig returns a laptop-scale configuration: 8 workstations plus
// servers, one week of history, full attack set.
func DefaultConfig() Config {
	return Config{Seed: 1, Hosts: 8, Days: 7, Density: 1.0}
}

const (
	// serverDB etc. are the shared infrastructure hosts every dataset has.
	serverDB    = "server-db"
	serverFiles = "server-files"
	serverWeb   = "server-web"

	externalAttackIP = "203.0.113.66" // TEST-NET-3: the attacker
	externalMailIP   = "198.51.100.9" // the phishing mail relay
	collectorIP      = "10.9.9.9"     // internal log collector sink
)

// Generate builds the dataset: background noise on every host, servers, and
// the selected attacks, then seals the store.
//
// The store is created with the given clock (nil = real clock, i.e. no
// simulated query charges). Generation itself never charges the clock.
func Generate(cfg Config, clk storeClock) (*Dataset, error) {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 8
	}
	if cfg.Days <= 0 {
		cfg.Days = 7
	}
	if cfg.Density <= 0 {
		cfg.Density = 1.0
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	}

	if cfg.Shards > store.MaxShards {
		return nil, fmt.Errorf("workload: shard count %d exceeds store.MaxShards (%d)", cfg.Shards, store.MaxShards)
	}
	var opts []store.Option
	if cfg.Shards > 1 {
		opts = append(opts, store.WithShards(cfg.Shards))
	}
	st := store.New(clk, opts...)
	g := &generator{
		cfg:   cfg,
		st:    st,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		t0:    cfg.Start.Unix(),
		tEnd:  cfg.Start.Unix() + int64(cfg.Days)*86400,
		pids:  make(map[string]int32),
		procs: make(map[string]map[string]event.Object),
	}

	for i := 0; i < cfg.Hosts; i++ {
		g.background(fmt.Sprintf("desktop-%02d", i+1), false)
	}
	for _, h := range []string{serverDB, serverFiles, serverWeb} {
		g.background(h, true)
	}

	ds := &Dataset{Store: st, Config: cfg}
	selected := cfg.Attacks
	if selected == nil {
		selected = []string{"phishing", "excel-macro", "shellshock", "cheating-student", "wget-gcc"}
	}
	for _, name := range selected {
		inj, ok := injectors[name]
		if !ok {
			return nil, fmt.Errorf("workload: unknown attack %q", name)
		}
		atk, err := inj(g)
		if err != nil {
			return nil, fmt.Errorf("workload: inject %s: %w", name, err)
		}
		ds.Attacks = append(ds.Attacks, atk)
	}

	sealStart := time.Now()
	if err := st.Seal(); err != nil {
		return nil, err
	}
	ds.SealWall = time.Since(sealStart)
	return ds, nil
}

// storeClock is the clock type accepted by store.New; declared locally to
// avoid making simclock part of this package's API surface.
type storeClock = interface {
	Now() time.Time
	Advance(time.Duration)
}

// generator carries shared state across background and attack injection.
type generator struct {
	cfg   Config
	st    *store.Store
	rng   *rand.Rand
	t0    int64
	tEnd  int64
	pids  map[string]int32                   // next pid per host
	procs map[string]map[string]event.Object // host -> exe -> running process
}

// pid allocates a fresh process ID on a host.
func (g *generator) pid(host string) int32 {
	g.pids[host] += 4
	return 1000 + g.pids[host]
}

// proc returns the long-running process instance for (host, exe), creating
// it at the given start time on first use.
func (g *generator) proc(host, exe string, start int64) event.Object {
	if g.procs[host] == nil {
		g.procs[host] = make(map[string]event.Object)
	}
	if p, ok := g.procs[host][exe]; ok {
		return p
	}
	p := event.Process(host, exe, g.pid(host), start)
	g.procs[host][exe] = p
	return p
}

// add records an event; generation-time failures are programming errors, so
// it panics (the inputs are fully under this package's control).
func (g *generator) add(t int64, sub, obj event.Object, a event.Action, d event.Direction, amt int64) event.EventID {
	if t < g.t0 {
		t = g.t0
	}
	if t >= g.tEnd {
		t = g.tEnd - 1
	}
	id, err := g.st.AddEvent(t, sub, obj, a, d, amt)
	if err != nil {
		panic(fmt.Sprintf("workload: add event: %v", err))
	}
	return id
}

// sock builds a host-global socket object: both endpoints observe the same
// logical channel, which is what lets backtracking cross hosts.
func sock(srcIP string, srcPort uint16, dstIP string, dstPort uint16) event.Object {
	return event.Socket("", srcIP, srcPort, dstIP, dstPort)
}

// hostIP gives each host a stable private address.
func hostIP(host string) string {
	sum := 0
	for _, c := range host {
		sum = (sum*31 + int(c)) % 200
	}
	return fmt.Sprintf("10.1.0.%d", 10+sum)
}

// when formats a Unix timestamp in BDL's time literal syntax.
func when(t int64) string {
	return time.Unix(t, 0).UTC().Format("01/02/2006:15:04:05")
}

// day formats a Unix timestamp as a BDL date literal.
func day(t int64) string {
	return time.Unix(t, 0).UTC().Format("01/02/2006")
}
