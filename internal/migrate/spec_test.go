package migrate

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"switches": [{"name": "edge1", "ports": 5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "campaign" {
		t.Errorf("defaults: name=%q", s.Name)
	}
	if s.TrafficInterval.Duration != 2*time.Millisecond {
		t.Errorf("traffic interval default: %v", s.TrafficInterval.Duration)
	}
	if s.WaveSoak.Duration != 30*time.Millisecond || s.WaveGap.Duration != 10*time.Millisecond {
		t.Errorf("soak/gap defaults: %v/%v", s.WaveSoak.Duration, s.WaveGap.Duration)
	}
	if s.WaveBudget != s.ResolveCatalog().ServerPrice {
		t.Errorf("budget default: $%v", s.WaveBudget)
	}
}

func TestParseSpecFaultDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"switches": [{"name": "edge1", "ports": 5}],
		"waveSoak": "40ms",
		"faults": [{"kind": "trunkFlap", "switch": "edge1"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	f := s.Faults[0]
	if f.AfterDeploy.Duration != 20*time.Millisecond {
		t.Errorf("afterDeploy default: %v, want half the soak", f.AfterDeploy.Duration)
	}
	if f.Duration.Duration != 5*time.Millisecond {
		t.Errorf("flap duration default: %v", f.Duration.Duration)
	}
}

func TestParseSpecCatalogOverride(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"switches": [{"name": "edge1", "ports": 5}],
		"catalog": {"serverPrice": 999}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ResolveCatalog().ServerPrice; got != 999 {
		t.Errorf("server price override: $%v", got)
	}
	if s.WaveBudget != 999 {
		t.Errorf("budget must default to the overridden server price, got $%v", s.WaveBudget)
	}
}

func TestParseSpecRejections(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"garbage", `{`, "spec parse"},
		{"no-switches", `{"switches": []}`, "no switches"},
		{"too-few-ports", `{"switches": [{"name": "a", "ports": 2}]}`, ">= 3"},
		{"too-many-ports", `{"switches": [{"name": "a", "ports": 999}]}`, "caps at 250"},
		{"bad-fault-kind", `{"switches": [{"name": "a", "ports": 5}], "faults": [{"kind": "meteor", "switch": "a"}]}`, "unknown kind"},
		{"bad-fault-target", `{"switches": [{"name": "a", "ports": 5}], "faults": [{"kind": "serverDown", "switch": "z"}]}`, "unknown switch"},
		{"fault-outside-soak", `{"switches": [{"name": "a", "ports": 5}], "waveSoak": "10ms", "faults": [{"kind": "serverDown", "switch": "a", "afterDeploy": "10ms"}]}`, "outside"},
	} {
		_, err := ParseSpec([]byte(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
