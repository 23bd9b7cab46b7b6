package analysis

import (
	"path/filepath"
	"testing"
)

func TestRelativePath(t *testing.T) {
	root := filepath.FromSlash("/mod/root")
	for in, want := range map[string]string{
		filepath.FromSlash("/mod/root/internal/a/a.go"): "internal/a/a.go",
		filepath.FromSlash("/elsewhere/b.go"):           filepath.FromSlash("/elsewhere/b.go"),
	} {
		if got := RelativePath(root, in); got != want {
			t.Errorf("RelativePath(%q) = %q, want %q", in, got, want)
		}
	}
}
