// Package dmcc holds the listings of the paper's programs: testdata/
// jacobi.f (§3), sor.f (§5), gauss.f (§6) and matmul.f (§2.1), the one
// definition of each. ir.Builtin parses them.
//
// The embed lives here because go:embed reaches only files at or below
// the embedding package's directory, so internal/ir cannot embed
// ../../testdata, and the listings stay in testdata/ because the
// benchmark reads them from there at run time. The package imports only
// embed, so ir may import it; its tests are package dmcc_test, so nothing
// they import can make a cycle.
package dmcc

import "embed"

// Listings holds testdata/{jacobi,sor,gauss,matmul}.f.
//
//go:embed testdata/jacobi.f testdata/sor.f testdata/gauss.f testdata/matmul.f
var Listings embed.FS
