package main

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test below run this binary as apgen itself.
func TestMain(m *testing.M) {
	if os.Getenv("APGEN_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestFlagSurface pins apgen's flags: a new knob is a reviewed change to
// this list. The test binary's own test.* flags are not apgen's.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"attacks", "days", "density", "export", "hosts", "metrics", "out",
		"seed",
	}
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "APGEN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("apgen -h: %v\n%s", err, out)
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
