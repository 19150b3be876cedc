package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadFlags pins the CLI contract for bad input: an unknown
// -exp and out-of-range -threads/-scale values each exit 1 with exactly
// one stderr line naming the problem, and never panic.
func TestRejectsBadFlags(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "txbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building txbench: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "bogus"}, "unknown experiment"},
		{[]string{"-exp", "table1", "-threads", "0"}, "-threads"},
		{[]string{"-exp", "table1", "-threads", "-2"}, "-threads"},
		{[]string{"-exp", "table1", "-scale", "0"}, "-scale"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit = %v, want exit code 1\nstderr: %s", err, stderr.String())
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if strings.ContainsRune(msg, '\n') || strings.Contains(msg, "panic") {
				t.Fatalf("stderr is not one clean line:\n%s", stderr.String())
			}
			if !strings.HasPrefix(msg, "txbench: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q: want a txbench error naming %q", msg, tc.want)
			}
		})
	}
}
