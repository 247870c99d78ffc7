package report

import (
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from this tree")

// TestMeasuredFiguresGolden pins every simulated figure the paper's
// measured artifacts print — Table 1's eight makespans, the Fig 5
// schedule, and the naive / pipelined makespans, message and word counts
// of Fig 6 (SOR) and Fig 8 (Gauss) — where the Renders tests above check
// shape. The golden was generated on the tree that still ran these on
// the goroutine-per-processor channel runtime, so it is also the record
// that moving them to the event scheduler changed no number; -update
// only when the cost model legitimately changes.
func TestMeasuredFiguresGolden(t *testing.T) {
	const m, n = 64, 8
	got := Table1(m, n) + "\n"
	for _, fig := range []func() (string, error){Fig5, func() (string, error) { return Fig6(m, n) }, func() (string, error) { return Fig8(m, n) }} {
		s, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		got += s + "\n"
	}
	const path = "testdata/figures.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("measured figures differ from %s\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
