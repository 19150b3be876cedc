package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// buildTxtrace compiles the command once per test into a temp dir.
func buildTxtrace(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "txtrace")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building txtrace: %v\n%s", err, out)
	}
	return bin
}

// writeTraceFile serializes a tiny trace, applies edit to the bytes (nil
// leaves them as written), and returns a path holding them.
func writeTraceFile(t *testing.T, dir string, edit func([]byte) []byte) string {
	t.Helper()
	tr := trace.FromEvents("clipped",
		trace.Event{Kind: trace.KFork, TID: 0, Other: 1},
		trace.Event{Kind: trace.KAccess, TID: 1, Write: true, Site: 3, Addr: 0x40},
		trace.Event{Kind: trace.KAccess, TID: 0, Site: 4, Addr: 0x40},
	)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if edit != nil {
		raw = edit(raw)
	}
	path := filepath.Join(dir, "in.trace")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAnalyzeRejectsCorruptTraces pins the CLI contract for corrupt input:
// txtrace -in on a garbage or truncated file exits non-zero with
// a single stderr line naming the wire version and byte offset of the
// failure — never a panic, never a silent short read reported as success.
// A file in the retired wire v1 fails at its header.
func TestAnalyzeRejectsCorruptTraces(t *testing.T) {
	bin := buildTxtrace(t)
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage.trace")
	if err := os.WriteFile(garbage, []byte("definitely not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	v1path := writeTraceFile(t, t.TempDir(), func(b []byte) []byte { b[4] = 1; return b })
	v2path := writeTraceFile(t, t.TempDir(), func(b []byte) []byte { return b[:len(b)-2] }) // cut mid-record

	cases := []struct {
		name string
		path string
		want []string
	}{
		{"garbage", garbage, []string{"txtrace:", "bad magic"}},
		{"v1-header", v1path, []string{"txtrace: trace: unsupported version 1"}},
		{"truncated-v2", v2path, []string{"txtrace:", "wire v2", "offset", "unexpected EOF"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, "-in", tc.path)
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
			for _, want := range tc.want {
				if !strings.Contains(msg, want) {
					t.Fatalf("stderr %q lacks %q", msg, want)
				}
			}
			if strings.Contains(stderr.String(), "panic") {
				t.Fatalf("command panicked:\n%s", stderr.String())
			}
		})
	}

	// Control: the untruncated trace analyzes cleanly.
	good := writeTraceFile(t, t.TempDir(), nil)
	out, err := exec.Command(bin, "-in", good).CombinedOutput()
	if err != nil {
		t.Fatalf("valid trace rejected: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "happens-before:") {
		t.Fatalf("analyze output missing detector line:\n%s", out)
	}
}

// TestRejectsBadShards pins the -shards range: below 1 or above
// server.MaxShards exits 1 with one stderr line naming the bound, before
// any trace is read or recorded, so nothing is sized from the value.
func TestRejectsBadShards(t *testing.T) {
	bin := buildTxtrace(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"shards-0", []string{"-shards", "0"}, "-shards must be >= 1, got 0"},
		{"shards-over-cap", []string{"-shards", "1025"}, "-shards must be <= 1024, got 1025"},
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
			if !strings.HasPrefix(msg, "txtrace: ") || !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q, want a txtrace: line containing %q", msg, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout not empty: %q", stdout.String())
			}
		})
	}
}

// TestRejectsUnknownDetector pins that -detector is checked before the
// trace is read: a bad value exits 1 with one stderr line and nothing on
// stdout, with or without -shards.
func TestRejectsUnknownDetector(t *testing.T) {
	bin := buildTxtrace(t)
	good := writeTraceFile(t, t.TempDir(), nil)
	for _, args := range [][]string{
		{"-in", good, "-detector", "bogus"},
		{"-in", good, "-detector", "bogus", "-shards", "2"},
	} {
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("%v: exit = %v, want exit code 1\nstderr: %s", args, err, stderr.String())
		}
		want := `txtrace: unknown detector "bogus" (valid: hb, lockset, both)`
		if msg := strings.TrimSuffix(stderr.String(), "\n"); msg != want {
			t.Fatalf("%v: stderr %q, want %q", args, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: rejected only after reading the trace; stdout:\n%s", args, stdout.String())
		}
	}
}
