package cli

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestValidateBackend pins the -backend contract: every shipped backend
// name is accepted, and anything else is a one-line error naming both the
// rejected value and the full valid set — never a silent fall-through to a
// default.
func TestValidateBackend(t *testing.T) {
	for _, tc := range []struct {
		backend string
		ok      bool
	}{
		{"dir", true},
		{"tag", true},
		{"bounded", true},
		{"", true}, // unset means the default machine
		{"directory", false},
		{"refscan", false}, // the retired reference resolver was never a backend
		{"hashset", false},
		{"DIR", false},
		{"dir,tag", false},
	} {
		c := &Common{Threads: 4, Scale: 1, Backend: tc.backend}
		err := c.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("Validate(backend=%q) = %v, want nil", tc.backend, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Validate(backend=%q) = nil, want error", tc.backend)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, tc.backend) {
			t.Errorf("Validate(backend=%q) error %q does not name the rejected value", tc.backend, msg)
		}
		for _, name := range []string{"dir", "tag", "bounded"} {
			if !strings.Contains(msg, name) {
				t.Errorf("Validate(backend=%q) error %q does not list valid backend %q", tc.backend, msg, name)
			}
		}
		if strings.Contains(msg, "\n") {
			t.Errorf("Validate(backend=%q) error spans multiple lines: %q", tc.backend, msg)
		}
	}
}

// TestExperimentConfigCarriesBackend pins that the flag value reaches the
// experiment layer.
func TestExperimentConfigCarriesBackend(t *testing.T) {
	c := &Common{Threads: 4, Scale: 1, Seed: 1, Backend: "bounded"}
	if got := c.ExperimentConfig().Backend; got != "bounded" {
		t.Fatalf("ExperimentConfig().Backend = %q, want %q", got, "bounded")
	}
}

// TestValidateCounts pins the -threads/-scale/-jobs contract: values the
// workload builders and the experiment runner cannot honour are a one-line
// error naming the flag and the rejected value, never a panic or a
// degenerate run.
func TestValidateCounts(t *testing.T) {
	for _, tc := range []struct {
		threads, scale, jobs int
		flag                 string
	}{
		{4, 1, 0, ""},
		{1, 1, 8, ""},
		{0, 1, 0, "-threads"},
		{-2, 1, 0, "-threads"},
		{4, 0, 0, "-scale"},
		{4, -3, 0, "-scale"},
		{4, 1, -1, "-jobs"},
	} {
		c := &Common{Threads: tc.threads, Scale: tc.scale, Jobs: tc.jobs, Backend: "dir"}
		err := c.Validate()
		if tc.flag == "" {
			if err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", *c, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Validate(%+v) = nil, want a %s error", *c, tc.flag)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, tc.flag) || strings.Contains(msg, "\n") {
			t.Errorf("Validate(%+v) error %q: want one line naming %s", *c, msg, tc.flag)
		}
	}
}

// TestCheckRingCapacity pins the event-ring bound every command applies to
// -trace-buf and -flight-buf: obs.MaxRingCapacity passes, one more is a
// one-line error naming the flag, the bound and the value. Only the check
// runs; no ring is allocated.
func TestCheckRingCapacity(t *testing.T) {
	if err := CheckRingCapacity("-trace-buf", obs.MaxRingCapacity); err != nil {
		t.Fatalf("the bound itself rejected: %v", err)
	}
	if err := (&ObsFlags{FlightBuf: obs.DefaultFlightCapacity}).Validate(); err != nil {
		t.Fatalf("default -flight-buf rejected: %v", err)
	}
	for flagName, err := range map[string]error{
		"-trace-buf":  CheckRingCapacity("-trace-buf", obs.MaxRingCapacity+1),
		"-flight-buf": (&ObsFlags{FlightBuf: obs.MaxRingCapacity + 1}).Validate(),
	} {
		want := fmt.Sprintf("%s must be <= %d, got %d", flagName, obs.MaxRingCapacity, obs.MaxRingCapacity+1)
		if err == nil || err.Error() != want {
			t.Errorf("%s one past the bound: got %v, want %q", flagName, err, want)
		}
	}
}
