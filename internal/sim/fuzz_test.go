package sim

import "testing"

// FuzzParseScenario feeds the scenario decoder arbitrary documents: it
// must refuse what it cannot run with an error, never a panic. The
// committed corpus (testdata/fuzz) starts from the example scenarios.
func FuzzParseScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseScenario(data)
	})
}
