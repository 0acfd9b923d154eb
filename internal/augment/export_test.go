package augment

import (
	"fmt"

	"sepsp/internal/graph"
	"sepsp/internal/separator"
)

// SameBits exposes sameBits to the external tests.
var SameBits = sameBits

// ReferenceEPlus runs the emission stage of the named E+ construction
// ("alg41", "alg43", "reach41" or "reach43") and deduplicates its
// contributions with the retained map collector instead of assemble.
func ReferenceEPlus(alg string, g *graph.Digraph, t *separator.Tree, cfg Config) (*Result, error) {
	var parts []part
	var err error
	switch alg {
	case "alg41":
		parts, _, err = alg41Parts(g, t, cfg)
	case "alg43":
		parts, _, err = alg43Parts(g, t, cfg)
	case "reach41":
		parts, err = reach41Parts(g, t, cfg)
	case "reach43":
		parts, err = reach43Parts(g, t, cfg)
	default:
		return nil, fmt.Errorf("unknown construction %q", alg)
	}
	if err != nil {
		return nil, err
	}
	return referenceResult(parts), nil
}
