package experiment

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestPrecisionLocksetFindsTrueRacesAndFlagsFreqmine(t *testing.T) {
	p, err := RunPrecision(testCfg(), apps(t, "raytrace", "freqmine", "streamcluster"))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PrecisionRow{}
	for _, r := range p.Rows {
		byName[r.App.Name] = r
	}
	if r := byName["raytrace"]; r.TruePositives != r.TrueRaces || r.FalseAlarms != 0 {
		t.Errorf("raytrace: lockset should match exactly: %+v", r)
	}
	if r := byName["freqmine"]; r.FalseAlarms == 0 {
		t.Errorf("freqmine's init-then-share idiom must trip the lockset detector: %+v", r)
	}
	if r := byName["freqmine"]; r.TrueRaces != 0 {
		t.Errorf("freqmine has no true races: %+v", r)
	}
	var sb strings.Builder
	p.Write(&sb)
	if !strings.Contains(sb.String(), "false alarms") {
		t.Error("precision rendering incomplete")
	}
}

func TestShadowBoundedUnsoundOnStress(t *testing.T) {
	sh, err := RunShadow(testCfg(), apps(t, "raytrace"))
	if err != nil {
		t.Fatal(err)
	}
	// Last row is the synthetic eviction-pressure program.
	last := sh.Rows[len(sh.Rows)-1]
	if last.App.Name != "shadowstress" {
		t.Fatalf("stress row missing: %+v", last)
	}
	if last.Recall[1] >= 1 {
		t.Errorf("N=1 bounded shadow should lose races under eviction pressure: %+v", last)
	}
	if last.Bounded[4] < last.Bounded[1] {
		t.Errorf("more cells should not find fewer races: %+v", last)
	}
	// raytrace's races are found at first contact: bounded is sound there.
	if sh.Rows[0].Recall[4] != 1 {
		t.Errorf("raytrace should be unaffected by bounded shadow: %+v", sh.Rows[0])
	}
	var sb strings.Builder
	sh.Write(&sb)
	if !strings.Contains(sb.String(), "shadowstress") {
		t.Error("shadow rendering incomplete")
	}
}

// shadowTextPin is the sha256 of the shadow-cell table at DefaultConfig over
// every application, the stdout of "txbench -exp shadow", captured when
// bounded cells were still a runtime of their own.
const shadowTextPin = "fddbfa0167851851dfd0cce18b2554825b90fc8eed161da78bbf5bf05ef7ef5a"

// TestShadowMatchesPin pins the bounded-shadow configurations: folding them
// into TSan (detect.Config.Cells) must not move a race count or recall.
func TestShadowMatchesPin(t *testing.T) {
	sh, err := RunShadow(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sh.Write(&sb)
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String()))); got != shadowTextPin {
		t.Errorf("shadow table sha256 %s, pinned %s:\n%s", got, shadowTextPin, sb.String())
	}
}

func TestDetectabilityTaxonomy(t *testing.T) {
	d, err := RunDetectability(testCfg(), apps(t, "bodytrack", "raytrace"), 3)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DetectabilityRow{}
	for _, r := range d.Rows {
		byName[r.App.Name] = r
	}
	bt := byName["bodytrack"]
	if bt.Never != 2 || !bt.NeverAreDeferred {
		t.Errorf("bodytrack's two deferred races must be never-found: %+v", bt)
	}
	rt := byName["raytrace"]
	if rt.Never != 0 || rt.UnionAllRuns != 2 {
		t.Errorf("raytrace's races are reliably found: %+v", rt)
	}
	var sb strings.Builder
	d.Write(&sb)
	if !strings.Contains(sb.String(), "never=deferred?") {
		t.Error("detectability rendering incomplete")
	}
}

func TestJSONViewsAreEncodable(t *testing.T) {
	tab, err := RunTable1(testCfg(), apps(t, "raytrace"))
	if err != nil {
		t.Fatal(err)
	}
	mustEncode(t, tab.JSON())
	f7, err := RunFig7(testCfg(), apps(t, "raytrace"))
	if err != nil {
		t.Fatal(err)
	}
	mustEncode(t, f7.JSON())
	p, err := RunPrecision(testCfg(), apps(t, "raytrace"))
	if err != nil {
		t.Fatal(err)
	}
	mustEncode(t, p.JSON())
}

func mustEncode(t *testing.T, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	if len(b) < 10 {
		t.Fatalf("suspiciously empty json: %s", b)
	}
}
