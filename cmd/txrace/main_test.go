package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadFlags pins the CLI contract for bad input: an unknown
// -app or -detector and out-of-range -threads/-scale/-rate/-fault values
// each exit 1 with exactly one stderr line naming the problem and nothing
// on stdout, before any run starts, and never panic.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "txrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building txrace: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-app", "bogus"}, "unknown application"},
		{[]string{"-app", "vips", "-threads", "0"}, "-threads"},
		{[]string{"-app", "vips", "-threads", "-2"}, "-threads"},
		{[]string{"-app", "vips", "-scale", "0"}, "-scale"},
		{[]string{"-app", "blackscholes", "-detector", "sampling", "-rate", "2"}, "-rate"},
		{[]string{"-app", "blackscholes", "-detector", "sampling", "-rate", "-0.5"}, "-rate"},
		{[]string{"-app", "blackscholes", "-fault", "3"}, "-fault"},
		{[]string{"-app", "blackscholes", "-detector", "bogus"}, "unknown -detector"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit = %v, want exit code 1\nstderr: %s", err, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected only after starting work; stdout:\n%s", stdout.String())
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if strings.ContainsRune(msg, '\n') || strings.Contains(msg, "panic") {
				t.Fatalf("stderr is not one clean line:\n%s", stderr.String())
			}
			if !strings.HasPrefix(msg, "txrace: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q: want a txrace error naming %q", msg, tc.want)
			}
		})
	}
}
