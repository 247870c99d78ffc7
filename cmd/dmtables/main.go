// Command dmtables regenerates every table and figure of the paper.
//
// Usage:
//
//	dmtables              print everything
//	dmtables -only t1     print one artifact (t1,f1,f2,t2,f3,f4,t3,a1,t4,f5,f6,f7,t5,f8,x1,x2)
//	dmtables -m 64 -n 8   override the problem size / processor count of
//	                      the measured sections
package main

import (
	"flag"
	"fmt"
	"strings"

	"dmcc/internal/align"
	"dmcc/internal/cli"
	"dmcc/internal/ir"
	"dmcc/internal/report"
)

func main() {
	only := flag.String("only", "", "print a single artifact (t1,f1,f2,t2,f3,f4,t3,a1,t4,f5,f6,f7,t5,f8,x1,x2)")
	m := flag.Int("m", 64, "problem size for measured sections")
	n := flag.Int("n", 8, "processor count for measured sections")
	flag.Parse()
	if *m < 1 || *n < 1 {
		cli.Usage("dmtables", fmt.Errorf("-m %d -n %d: a size or processor count below 1", *m, *n))
	}

	type artifact struct {
		id  string
		gen func() (string, error)
	}
	wp := align.WeightParams{Bind: map[string]int{"m": *m}, N: *n, Tc: 1}
	artifacts := []artifact{
		{"t1", func() (string, error) { return report.Table1(*m, *n), nil }},
		{"f1", func() (string, error) { return report.Fig1(16), nil }},
		{"f2", func() (string, error) {
			p := ir.Jacobi()
			return report.AffinityGraph("Fig 2: component affinity graph of Jacobi's iterative algorithm", p, p.Nests, wp)
		}},
		{"t2", func() (string, error) { return report.Table2(*m, *n), nil }},
		{"f3", func() (string, error) { return report.Fig3(*m, *n) }},
		{"f4", func() (string, error) {
			p := ir.Jacobi()
			s1, err := report.AffinityGraph("Fig 4(a): alignment of L1 (lines 2-6)", p, p.Nests[:1], wp)
			if err != nil {
				return "", err
			}
			s2, err := report.AffinityGraph("Fig 4(b): alignment of L2 (lines 7-9)", p, p.Nests[1:], wp)
			if err != nil {
				return "", err
			}
			return s1 + "\n" + s2, nil
		}},
		{"t3", func() (string, error) { return report.Table3(), nil }},
		{"a1", func() (string, error) { return report.Algorithm1(ir.Jacobi(), *m, *n) }},
		{"t4", func() (string, error) { return report.Table4(), nil }},
		{"f5", report.Fig5},
		{"f6", func() (string, error) { return report.Fig6(*m, *n) }},
		{"f7", func() (string, error) {
			p := ir.Gauss()
			return report.AffinityGraph("Fig 7: component affinity graph of the Gauss elimination algorithm", p, p.Nests, wp)
		}},
		{"t5", func() (string, error) { return report.Table5() }},
		{"f8", func() (string, error) { return report.Fig8(*m, *n) }},
		{"x1", func() (string, error) { return report.Idleness(32, 4) }},
		{"x2", func() (string, error) { return report.NaiveBackend(24, 4) }},
	}

	printed := false
	for _, a := range artifacts {
		if *only != "" && !strings.EqualFold(*only, a.id) {
			continue
		}
		s, err := a.gen()
		if err != nil {
			cli.Fail("dmtables", fmt.Errorf("%s: %v", a.id, err))
		}
		fmt.Printf("==================== [%s] ====================\n%s\n", a.id, s)
		printed = true
	}
	if !printed {
		cli.Usage("dmtables", fmt.Errorf("unknown artifact %q", *only))
	}
}
