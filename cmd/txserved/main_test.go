package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRejectsBadInvocations pins the CLI contract: a missing mode, an
// out-of-range flag, or an unusable -in exits 1 with one stderr line naming
// the problem, never a panic and never a fallback to a default. No case
// gets as far as listening or dialling.
func TestRejectsBadInvocations(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "txserved")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building txserved: %v\n%s", err, out)
	}
	missing := filepath.Join(t.TempDir(), "missing.trace")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no-mode", nil, "need -listen (serve) or -connect (client)"},
		{"shards-0", []string{"-listen", "127.0.0.1:0", "-shards", "0"}, "-shards must be >= 1, got 0"},
		{"workers-negative", []string{"-listen", "127.0.0.1:0", "-workers", "-1"}, "-workers must be >= 0"},
		{"batch-0", []string{"-listen", "127.0.0.1:0", "-batch", "0"}, "-batch must be >= 1, got 0"},
		{"queue-0", []string{"-listen", "127.0.0.1:0", "-queue", "0"}, "-queue must be >= 1, got 0"},
		{"shards-over-cap", []string{"-shards", "1025"}, "-shards must be <= 1024, got 1025"},
		{"batch-over-cap", []string{"-batch", "65537"}, "-batch must be <= 65536, got 65537"},
		{"queue-over-cap", []string{"-queue", "1025"}, "-queue must be <= 1024, got 1025"},
		{"flight-buf-over-cap", []string{"-flight-buf", "16777217"}, "-flight-buf must be <= 16777216, got 16777217"},
		{"clients-0", []string{"-connect", "127.0.0.1:1", "-in", missing, "-clients", "0"}, "-clients must be >= 1, got 0"},
		{"connect-without-in", []string{"-connect", "127.0.0.1:1"}, "client mode needs -in"},
		{"missing-in-file", []string{"-connect", "127.0.0.1:1", "-in", missing}, "no such file or directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit = %v, want exit code 1\nstderr: %s", err, stderr.String())
			}
			msg := strings.TrimSuffix(stderr.String(), "\n")
			if strings.ContainsRune(msg, '\n') {
				t.Fatalf("stderr is not one line:\n%s", stderr.String())
			}
			if !strings.HasPrefix(msg, "txserved: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q, want a txserved: line containing %q", msg, tc.want)
			}
			if strings.Contains(msg, "panic") {
				t.Fatalf("command panicked:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout not empty: %q", stdout.String())
			}
		})
	}
}
