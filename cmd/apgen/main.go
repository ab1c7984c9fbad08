// Command apgen builds a synthetic enterprise audit dataset — the stand-in
// for the paper's 256-host production deployment — and persists it as an
// APTrace store directory plus an attacks.json ground-truth file.
//
// Usage:
//
//	apgen -out ./data [-hosts 8] [-days 7] [-density 1.0] [-seed 1]
//	      [-attacks phishing,excel-macro,...] [-export etw|auditd]
//
// The attacks.json file records, for every injected scenario, the alert
// event, the root-cause object, the ground-truth causal chain, and the BDL
// script versions an analyst would apply (usable directly with cmd/aptrace).
//
// Like aptrace, -metrics serves /metrics (Prometheus, including Go runtime
// metrics), /debug/telemetry (JSON) and net/http/pprof's /debug/pprof on one
// address for the process lifetime — brought up before generation, so the
// parallel seal of a large fleet can be watched and profiled live.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"aptrace"
)

func main() {
	var (
		out     = flag.String("out", "", "output store directory (required)")
		hosts   = flag.Int("hosts", 8, "number of monitored workstations")
		days    = flag.Int("days", 7, "days of recorded history")
		density = flag.Float64("density", 1.0, "background activity scale (1.0 ~ 2000 events/host/day)")
		seed    = flag.Int64("seed", 1, "generator seed")
		attacks = flag.String("attacks", "", "comma-separated attack subset (default: all five)")
		export  = flag.String("export", "", "also export raw audit records: etw or auditd")
		metrics = flag.String("metrics", "", "serve /metrics (Prometheus), /debug/telemetry (JSON) and /debug/pprof on this address, e.g. :9090")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "apgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	// Telemetry comes up before generation so the expensive part — the
	// parallel seal — is observable live (Go runtime metrics, pprof).
	var reg *aptrace.Telemetry
	if *metrics != "" {
		reg = aptrace.NewTelemetry()
		aptrace.RegisterRuntimeMetrics(reg)
		reg.RegisterPprof()
		_, addr, err := aptrace.ServeTelemetry(*metrics, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/telemetry on %s\n", addr)
	}

	cfg := aptrace.WorkloadConfig{Seed: *seed, Hosts: *hosts, Days: *days, Density: *density}
	if *attacks != "" {
		cfg.Attacks = strings.Split(*attacks, ",")
	}

	ds, err := aptrace.Generate(cfg, nil)
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		// Observe the sealed store too, so the export scan's query counters
		// show up in /debug/telemetry for the rest of the process lifetime.
		ds.Store.SetTelemetry(reg)
	}
	fmt.Printf("generated %d events, %d objects across %d hosts over %d days\n",
		ds.Store.NumEvents(), ds.Store.NumObjects(), *hosts, *days)

	if err := ds.Store.Save(*out); err != nil {
		fatal(err)
	}
	meta, err := json.MarshalIndent(ds.Attacks, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "attacks.json"), meta, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("store written to %s (attacks.json has %d scenarios)\n", *out, len(ds.Attacks))

	if *export != "" {
		var f aptrace.AuditFormat
		switch *export {
		case "etw":
			f = aptrace.FormatETW
		case "auditd":
			f = aptrace.FormatAuditd
		default:
			fatal(fmt.Errorf("unknown export format %q", *export))
		}
		path := filepath.Join(*out, "audit."+*export+".log")
		fh, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		n, err := aptrace.ExportAudit(ds.Store, fh, f)
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("exported %d raw audit records to %s\n", n, path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "apgen:", err)
	os.Exit(1)
}
