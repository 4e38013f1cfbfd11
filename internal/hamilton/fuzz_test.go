package hamilton

import (
	"slices"
	"testing"
)

// FuzzFamilyParams is the registry's no-panic contract: for arbitrary
// (family key, parameters) the constructors must either return a valid
// instance or an error — never panic. Instances that construct are
// built (graph + decomposition + full verification) when small enough
// to be cheap, and their canonical name must round-trip through Parse
// back to the same family and parameters. The raw key is also thrown
// at Parse directly, so the name parsers share the contract.
func FuzzFamilyParams(f *testing.F) {
	f.Add("Q", 4, 0, 0)
	f.Add("Q", 31, -1, 9)
	f.Add("SQ", 4, 4, 0)
	f.Add("H", 3, 0, 0)
	f.Add("T", 4, 4, 4)
	f.Add("T", 3, -7, 2)
	f.Add("TQ", 5, 0, 0)
	f.Add("TQ", 23, 1, 1)
	f.Add("KT", 4, 2, 0)
	f.Add("KT", 3, -2, 8)
	f.Add("KT4x2", 0, 0, 0)
	f.Add("ZZZ9", 1<<30, 3, -5)
	f.Fuzz(func(t *testing.T, key string, a, b, c int) {
		// Arbitrary names through the parsers: error or instance,
		// never a panic.
		if in, err := Parse(key); err == nil {
			checkInstance(t, in)
		}
		i := slices.IndexFunc(families, func(f Family) bool { return f.Key == key })
		if i < 0 {
			return
		}
		fam := families[i]
		for _, params := range [][]int{{}, {a}, {a, b}, {a, b, c}} {
			in, err := fam.New(params...)
			if err != nil {
				continue
			}
			checkInstance(t, in)
		}
	})
}

// checkInstance builds small instances and round-trips their name.
func checkInstance(t *testing.T, in *Instance) {
	t.Helper()
	if in.N <= 0 || in.Gamma <= 0 {
		t.Fatalf("%s: nonsensical invariants N=%d γ=%d", in.Name, in.N, in.Gamma)
	}
	again, err := Parse(in.Name)
	if err != nil {
		t.Fatalf("Parse(%q) does not round-trip: %v", in.Name, err)
	}
	if again.FamilyKey != in.FamilyKey || again.N != in.N || again.Gamma != in.Gamma {
		t.Fatalf("Parse(%q) = {%s N=%d γ=%d}, want {%s N=%d γ=%d}",
			in.Name, again.FamilyKey, again.N, again.Gamma, in.FamilyKey, in.N, in.Gamma)
	}
	// Building large instances is legitimate but not fuzz-cheap; the
	// cap keeps iterations fast while still covering every family's
	// construction path (all conformance sizes are far below it).
	if in.N > 4096 {
		return
	}
	if _, _, err := in.Build(); err != nil {
		// The mixed-radix torus family has a documented coverage
		// caveat: Foregger's theorem guarantees a decomposition for
		// every mix, but the staircase engine reports the mixes it
		// cannot construct (e.g. 3x7) as a clean error. Every other
		// family must build whatever its New accepts.
		if in.FamilyKey == "T" {
			return
		}
		t.Fatalf("%s: valid parameters failed to build: %v", in.Name, err)
	}
}
