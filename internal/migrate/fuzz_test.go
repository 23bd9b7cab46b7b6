package migrate

import "testing"

// FuzzParseSpec feeds the campaign-spec decoder arbitrary documents: it
// must refuse what it cannot run with an error, never a panic. The
// committed corpus (testdata/fuzz) starts from the example campaign.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseSpec(data)
	})
}
