package core

import (
	"testing"

	"ihc/internal/topology"
)

// TestShardedEquivalenceFamilies runs verifyFullATA on the twisted
// cubes TQ_3–TQ_5, whose decompositions do not cover every edge, and on
// 3-ary and 5-ary tori, whose odd N leaves a ragged η seam.
func TestShardedEquivalenceFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *topology.Graph
	}{
		{"TQ3", topology.MustTwistedCube(3)},
		{"TQ4", topology.MustTwistedCube(4)},
		{"TQ5", topology.MustTwistedCube(5)},
		{"KT3x2", topology.MustKAryTorus(3, 2)},
		{"KT3x3", topology.MustKAryTorus(3, 3)},
		{"KT5x2", topology.MustKAryTorus(5, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { verifyFullATA(t, tc.g) })
	}
}
