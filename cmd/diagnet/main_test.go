package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with DIAGNET_RUN_MAIN set,
// this test binary is diagnet, so the tests below see real exit statuses.
func TestMain(m *testing.M) {
	if os.Getenv("DIAGNET_RUN_MAIN") == "1" {
		main()
	}
	os.Exit(m.Run())
}

// runDiagnet runs the command with args in dir and returns its exit status
// and stderr.
func runDiagnet(t *testing.T, dir string, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "DIAGNET_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

// TestEveryCommandAnswersHelp: -h on every command of the table (and on
// trace's two verbs) exits 0, prints the command's usage and writes no
// file.
func TestEveryCommandAnswersHelp(t *testing.T) {
	var lines [][]string
	for _, c := range commands {
		lines = append(lines, []string{c.name, "-h"})
	}
	lines = append(lines, []string{"trace", "record", "-h"}, []string{"trace", "replay", "-h"}, []string{"-h"})
	for _, args := range lines {
		dir := t.TempDir()
		code, stderr := runDiagnet(t, dir, args...)
		want := "usage: diagnet " + strings.Join(args[:len(args)-1], " ")
		if code != 0 || !strings.Contains(stderr, want) {
			t.Errorf("diagnet %s: exit %d, want 0 and %q in:\n%s", strings.Join(args, " "), code, want, stderr)
		}
		if files, _ := os.ReadDir(dir); len(files) != 0 {
			t.Errorf("diagnet %s wrote %s", strings.Join(args, " "), files[0].Name())
		}
	}
}

// TestUsageErrorsExitTwo: an unknown or missing command, an unknown flag
// and a flag value a command cannot run with each exit 2.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"eval"},
		{"train", "-specialize"},
		{"trace"},
		{"probe"},
		{"probe", "-breaker-threshold", "1", "http://127.0.0.1:1"}, // an agent-only flag
		{"agent"},
		{"figures", "-profile", "huge"},
		{"figures", "-fig", "bogus"},
		{"simulate", "-faults", "loss@NOWHERE"},
	} {
		if code, stderr := runDiagnet(t, t.TempDir(), args...); code != 2 {
			t.Errorf("diagnet %s: exit %d, want 2; stderr:\n%s", strings.Join(args, " "), code, stderr)
		}
	}
}
