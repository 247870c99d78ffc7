// The headline transport property of the collective redistribution
// lowering: the gauss word drop (ISSUE 7's acceptance bar).

package exec

import (
	"testing"

	"dmcc/internal/ir"
	"dmcc/internal/machine"
	"dmcc/internal/matrix"
)

// TestCollectiveGaussWordDrop: at m=64 on 16 processors the composed
// collective transport must move at least 5x fewer words than the
// point-to-point vectored exchange it replaced (144150 words and 18820
// messages when that lowering was deleted; the bar is 28830 words),
// while staying bit-identical to RunExact on values and flops and never
// exceeding the per-element transport (only-drop).
func TestCollectiveGaussWordDrop(t *testing.T) {
	const m, n = 64, 16
	const p2pWords, p2pMessages = 144150, 18820
	p := ir.Gauss()
	a, bvec, _ := matrix.DiagonallyDominant(m, 401)
	input := loadLinearSystem(p, a, bvec, nil)
	ss := wholeProgramSchemes(t, p, m, n)
	bind := map[string]int{"m": m}
	cfg := machine.DefaultConfig()

	coll, err := Run(p, ss, bind, nil, 1, cfg, input)
	if err != nil {
		t.Fatalf("collective: %v", err)
	}
	want, err := RunExact(p, ss, bind, nil, 1, cfg, input)
	if err != nil {
		t.Fatalf("exact: %v", err)
	}
	requireIdentical(t, "gauss collective", coll, want)

	if p2pWords < 5*coll.Transport.Words {
		t.Errorf("collective words %d not a 5x drop from the point-to-point exchange's %d",
			coll.Transport.Words, p2pWords)
	}
	if coll.Transport.Messages > p2pMessages {
		t.Errorf("collective transport sent %d messages, the point-to-point exchange only %d",
			coll.Transport.Messages, p2pMessages)
	}
}
