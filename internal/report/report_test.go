package report

import (
	"strings"
	"testing"

	"dmcc/internal/align"
	"dmcc/internal/ir"
)

func TestTable1Renders(t *testing.T) {
	s := Table1(64, 8)
	for _, want := range []string{
		"Transfer(m)", "Shift(m)", "OneToManyMulticast", "Reduction",
		"AffineTransform", "Scatter", "Gather", "ManyToManyMulticast",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 missing %s:\n%s", want, s)
		}
	}
	// Transfer of 64 words at tc=1: makespan 64. Multicast: 64*log2(8)=192.
	// Gather/Scatter/ManyToMany: 64*8 = 512.
	flat := strings.Join(strings.Fields(s), " ")
	for _, want := range []string{"O(m) 64", "O(m log num) 192", "O(m num) 512"} {
		if !strings.Contains(flat, want) {
			t.Errorf("Table1 missing %q:\n%s", want, s)
		}
	}
}

func TestFig1Renders(t *testing.T) {
	s := Fig1(16)
	for _, want := range []string{"(a)", "(h)", "00 01 02 03", "00 03 02 01"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig1 missing %q", want)
		}
	}
}

func TestAffinityGraphRenders(t *testing.T) {
	p := ir.Jacobi()
	g, err := align.BuildGraph(p, p.Nests, align.DefaultWeightParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := AffinityGraph("Fig 2", g)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 2", "A1", "V1", "dim1 = {", "dim2 = {"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q:\n%s", want, s)
		}
	}
	// The Section 3 alignment: A1 and V1 together.
	if !strings.Contains(s, "dim1 = {A1, V1}") {
		t.Errorf("alignment wrong:\n%s", s)
	}
}

func TestTable2Renders(t *testing.T) {
	s := Table2(1024, 16)
	if !strings.Contains(s, "1 x 16") || !strings.Contains(s, "16 x 1") || !strings.Contains(s, "4 x 4") {
		t.Errorf("Table2 rows missing:\n%s", s)
	}
	if !strings.Contains(s, "DP scheme") {
		t.Errorf("DP row missing:\n%s", s)
	}
}

func TestFig3Renders(t *testing.T) {
	s, err := Fig3(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"L1", "L2", "loop-carried", "total"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig3 missing %q:\n%s", want, s)
		}
	}
}

func TestTable3Renders(t *testing.T) {
	s := Table3()
	if !strings.Contains(s, "processor 0:") || !strings.Contains(s, "processor 3:") {
		t.Fatalf("Table3:\n%s", s)
	}
	// Processor 0 holds row 1 of A, V1, B1, X1.
	if !strings.Contains(s, "A[rows 1; cols 1,2,3,4] B1 V1 X1") {
		t.Errorf("Table3 processor 0 wrong:\n%s", s)
	}
}

func TestTable4Renders(t *testing.T) {
	s := Table4()
	// Processor 0 holds column 1 of A, B1, X1, and all of V (replicated).
	if !strings.Contains(s, "A[rows 1,2,3,4; cols 1]") {
		t.Errorf("Table4 processor 0 wrong:\n%s", s)
	}
	if !strings.Contains(s, "(V1 V2 V3 V4)") {
		t.Errorf("V replication missing:\n%s", s)
	}
}

func TestFig5Renders(t *testing.T) {
	s, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "A(1,1..4)") || !strings.Contains(s, "X(1)") {
		t.Fatalf("Fig5:\n%s", s)
	}
}

func TestFig6Renders(t *testing.T) {
	s, err := Fig6(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"receive_from_left( V(i) )", "naive", "pipelined", "speedup"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig6 missing %q", want)
		}
	}
}

func TestTable5Renders(t *testing.T) {
	s, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"B(k)", "(k,0)+i(0,1)", "all PEs",
		"A(k,j)", "X(j)", "(i-1) mod N",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table5 missing %q:\n%s", want, s)
		}
	}
}

func TestFig8Renders(t *testing.T) {
	s, err := Fig8(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Apipeline", "Xpipeline", "broadcast", "pipelined", "speedup"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig8 missing %q", want)
		}
	}
}

func TestAlgorithm1Renders(t *testing.T) {
	s, err := Algorithm1(ir.Jacobi(), 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"minimum cost", "whole-program", "loop-carried", "pipelinable"} {
		if !strings.Contains(s, want) {
			t.Errorf("Algorithm1 missing %q:\n%s", want, s)
		}
	}
}

func TestIdlenessRenders(t *testing.T) {
	s, err := Idleness(32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"idle fraction", "naive", "pipelined"} {
		if !strings.Contains(s, want) {
			t.Errorf("Idleness missing %q", want)
		}
	}
}

func TestNaiveBackendRenders(t *testing.T) {
	s, err := NaiveBackend(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pipelining gain", "per-element transfers"} {
		if !strings.Contains(s, want) {
			t.Errorf("NaiveBackend missing %q", want)
		}
	}
}
