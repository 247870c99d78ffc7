package dmcc_test

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dmcc"
	"dmcc/internal/ir"
)

// TestListingsAreEmbedded: every .f file under testdata/ is in the
// embedded listings and in ir.Corpus(), so a listing added to the
// directory without its go:embed entry fails here instead of reaching no
// test: the embed is the only way the tree reads a listing.
func TestListingsAreEmbedded(t *testing.T) {
	onDisk, err := filepath.Glob("testdata/*.f")
	if err != nil || len(onDisk) == 0 {
		t.Fatalf("testdata/*.f: %v, %v", onDisk, err)
	}
	embedded, err := fs.Glob(dmcc.Listings, "testdata/*.f")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(onDisk, embedded) {
		t.Errorf("testdata/ holds %v, the embed %v: name every listing in dmcc.go's go:embed line", onDisk, embedded)
	}
	var names []string
	for _, p := range ir.Corpus() {
		names = append(names, p.Name)
	}
	for _, f := range onDisk {
		if name := strings.TrimSuffix(filepath.Base(f), ".f"); !slices.Contains(names, name) {
			t.Errorf("%s is not in ir.Corpus() %v", f, names)
		}
	}
}
