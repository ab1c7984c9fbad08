package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the tests below run this binary as apbench itself.
func TestMain(m *testing.M) {
	if os.Getenv("APBENCH_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestFlagSurface pins apbench's flags: a new knob is a reviewed change to
// this list. The test binary's own test.* flags are not apbench's.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"cap", "days", "density", "exp", "hosts", "json", "k", "parallel",
		"samples", "seed",
	}
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "APBENCH_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("apbench -h: %v\n%s", err, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllSubmatch(out, -1) {
		if name := string(m[1]); !strings.HasPrefix(name, "test.") {
			got = append(got, name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flags = %q\nwant    %q", got, want)
	}
}

// TestUnknownExperimentFailsBeforeDataset: a name -exp does not know — a typo
// behind a valid name, or one of the retired experiments — is an
// error before the dataset is generated, not after the valid names have run.
func TestUnknownExperimentFailsBeforeDataset(t *testing.T) {
	const known = "severity, fig4, table1, table2, fig6, refiner, ablation-k, ablation-policy"
	for _, exp := range []string{"table2,typo", "serve", "memo", "obs", "shard", "qprof", "perf", "explain", "timeline"} {
		cmd := exec.Command(os.Args[0], "-exp", exp, "-hosts", "1", "-days", "1", "-samples", "1")
		cmd.Env = append(os.Environ(), "APBENCH_TEST_MAIN=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err == nil {
			t.Errorf("-exp %s: exit 0, want failure", exp)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s: worked before failing:\n%s", exp, stdout.String())
		}
		bad := exp[strings.LastIndex(exp, ",")+1:]
		if want := `unknown experiment "` + bad + `" (want one of ` + known + ")"; !strings.Contains(stderr.String(), want) {
			t.Errorf("-exp %s: stderr %q, want it to contain %q", exp, stderr.String(), want)
		}
	}
}
