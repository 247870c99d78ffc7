// Package parse forwards to the frontend, ir.Parse. It stays while the
// benchmark module calls this package's Parse by name.
package parse

import "dmcc/internal/ir"

// Parse is ir.Parse.
func Parse(src string) (*ir.Program, error) { return ir.Parse(src) }
