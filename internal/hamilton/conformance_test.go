// The cross-family conformance suite: every family in the hamilton
// family table is run through the full verification battery
// (decomposition validity, schedule feasibility, Theorem 3/4 oracle
// cleanliness, γ-copy ledger) at the small sizes the family declares
// in Conformance; internal/simnet checks the same sizes for identity
// across engine widths. The battery itself lives in
// internal/conformance — this file is deliberately just the table
// iteration, so adding a family to the table is all it takes to be
// covered. External test package: the battery drives internal/core and
// internal/observe, which import hamilton.
package hamilton_test

import (
	"testing"

	"ihc/internal/conformance"
	"ihc/internal/hamilton"
)

func TestCrossFamilyConformance(t *testing.T) {
	fams := hamilton.Families()
	if len(fams) < 6 {
		t.Fatalf("registry has %d families, want >= 6 (Q, SQ, H, T, TQ, KT)", len(fams))
	}
	for _, f := range fams {
		f := f
		t.Run(f.Key, func(t *testing.T) {
			t.Parallel()
			if len(f.Conformance) == 0 {
				t.Fatalf("family %s declares no conformance sizes", f.Key)
			}
			if err := conformance.CheckFamily(f); err != nil {
				t.Fatal(err)
			}
		})
	}
}
