package main

import (
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test below run this binary as apquery itself.
func TestMain(m *testing.M) {
	if os.Getenv("APQUERY_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestFlagSurface pins apquery's flags: a new knob is a reviewed change to
// this list. The test binary's own test.* flags are not apquery's.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"around", "events", "n", "objects", "stats", "store",
	}
	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "APQUERY_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("apquery -h: %v\n%s", err, out)
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
