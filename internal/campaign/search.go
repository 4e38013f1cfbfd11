package campaign

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/reliable"
	"ihc/internal/topology"
)

// Search configures the adversary-search driver.
type Search struct {
	// Budget is the largest placement count still enumerated
	// exhaustively; C(domain, t) above it switches to random sampling.
	Budget int
	// Samples is the number of seeded random placements graded in
	// sampling mode.
	Samples int
	// CrossCheck, when > 0, re-grades every CrossCheck-th placement with
	// reliable.EvaluateIHC and errors out on disagreement — a live
	// defense against structural-grader bugs, at ~100x the cost per
	// checked placement.
	CrossCheck int
	// Keyring signs messages for signed points; nil derives one per
	// point.
	Keyring *reliable.Keyring
	// Cancel, when non-nil, aborts the search between placements once
	// it is closed; the aborted call returns ErrCanceled. Wire a
	// signal-bound context's Done() channel here for interruptible
	// command-line runs.
	Cancel <-chan struct{}
}

// ErrCanceled is returned when a search stops because its Cancel
// channel closed before the sweep finished.
var ErrCanceled = errors.New("campaign: search canceled")

// DefaultSearch is the standard configuration: exhaustive through a few
// tens of thousands of placements, 10⁴ samples beyond, sparse live
// cross-checking.
func DefaultSearch() Search {
	return Search{Budget: 50000, Samples: 10000, CrossCheck: 1000}
}

// Report is the outcome of searching one Point.
type Report struct {
	Topo       string `json:"topo"`
	N          int    `json:"n"`
	Gamma      int    `json:"gamma"`
	Signed     bool   `json:"signed"`
	Domain     string `json:"domain"`
	Kind       string `json:"kind"`
	T          int    `json:"t"`
	Exhaustive bool   `json:"exhaustive"`
	Placements int    `json:"placements"`
	Violations int    `json:"violations"`
	// Counterexample is the first bound-violating placement found,
	// greedily shrunk to a 1-minimal set (dropping any single element
	// restores delivery). Empty when no violation was found.
	Counterexample []string `json:"counterexample,omitempty"`
	// CounterexampleT is the size of the shrunk counterexample; a value
	// below T means T was not minimal for this violation.
	CounterexampleT int `json:"counterexample_t,omitempty"`
	// Outcome of the shrunk counterexample, as graded by EvaluateIHC.
	CounterexampleOutcome *reliable.Outcome `json:"counterexample_outcome,omitempty"`
	// Confirmed records that the shrunk counterexample was re-graded by
	// both reliable.EvaluateIHC and the timed engine grader
	// (reliable.EvaluateTimed on the statically-lifted plan) with the
	// same violation verdict.
	Confirmed bool `json:"confirmed,omitempty"`
	// MinCorrectFraction is the worst correct fraction over all graded
	// placements.
	MinCorrectFraction float64 `json:"min_correct_fraction"`
	ElapsedSec         float64 `json:"elapsed_sec"`
	PlacementsPerSec   float64 `json:"placements_per_sec"`
}

// pointSeed mixes a Point's identity into its seed so sampling, Byzantine
// coins, and hence whole campaigns are reproducible per point.
func pointSeed(pt Point) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%v|%v|%v|%d", pt.name(), pt.Signed, pt.Domain, pt.Kind, pt.T)
	return pt.Seed ^ int64(h.Sum64()&0x7fffffffffffffff)
}

// domainSize returns how many elements the point's domain has.
func domainSize(pt Point) int {
	if pt.Domain == DomainLinks {
		return pt.X.Graph().M()
	}
	return pt.X.N()
}

// binomial returns C(n, k), saturating at a large sentinel to avoid
// overflow on big domains.
func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	const sat = 1 << 50
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
		if c > sat {
			return sat
		}
	}
	return c
}

// RunPoint searches one point and reports what it found. Exhaustive mode
// enumerates t-subsets in lexicographic order (so "first violation" is
// deterministic); sampling mode draws distinct seeded random subsets.
func RunPoint(pt Point, cfg Search) (*Report, error) {
	if pt.T < 0 || pt.T > domainSize(pt) {
		return nil, fmt.Errorf("campaign: t = %d out of range [0,%d] on %s", pt.T, domainSize(pt), pt.name())
	}
	gr := newGrader(pt.X, pointSeed(pt))
	kr := cfg.Keyring
	if kr == nil && pt.Signed {
		kr = reliable.NewKeyring(pt.X.N(), pointSeed(pt))
	}
	rep := &Report{
		Topo: pt.name(), N: pt.X.N(), Gamma: pt.X.Gamma(),
		Signed: pt.Signed, Domain: pt.Domain.String(), Kind: pt.Kind.String(), T: pt.T,
		MinCorrectFraction: 1,
	}
	start := time.Now()

	var firstViolation []int
	graded := 0
	visit := func(elems []int) error {
		select {
		case <-cfg.Cancel:
			return ErrCanceled
		default:
		}
		graded++
		out := gr.grade(elems, pt.Domain, pt.Kind, pt.Signed)
		if cfg.CrossCheck > 0 && graded%cfg.CrossCheck == 1 {
			ref, err := reliable.EvaluateIHC(pt.X, buildPlan(gr.edges, elems, pt.Domain, pt.Kind, gr.seed), pt.Signed, kr)
			if err != nil {
				return fmt.Errorf("campaign: cross-check: %w", err)
			}
			if ref != out {
				return fmt.Errorf("campaign: grader disagrees with EvaluateIHC on %s %v: %+v vs %+v",
					pt.name(), gr.describe(elems, pt.Domain), out, ref)
			}
		}
		if f := out.CorrectFraction(); f < rep.MinCorrectFraction {
			rep.MinCorrectFraction = f
		}
		if violates(out) {
			rep.Violations++
			if firstViolation == nil {
				firstViolation = append([]int(nil), elems...)
			}
		}
		return nil
	}

	size := domainSize(pt)
	total := binomial(size, pt.T)
	if total <= cfg.Budget {
		rep.Exhaustive = true
		if err := forEachCombination(size, pt.T, visit); err != nil {
			return nil, err
		}
	} else {
		// Random search alternates two adversary strategies: uniform
		// placements over the whole domain, and *targeted* placements
		// drawn from the routes of one random (source, receiver) pair.
		// Uniform samples almost never concentrate t faults on a single
		// pair in a large domain, so on their own they understate the
		// adversary; targeted samples are the placements that would break
		// the bound if it were breakable, which makes a zero-violation
		// result meaningful evidence rather than an artifact of sparse
		// sampling.
		rng := rand.New(rand.NewSource(pointSeed(pt)))
		elems := make([]int, pt.T)
		for i := 0; i < cfg.Samples; i++ {
			if i%2 == 0 {
				sampleSubset(rng, size, elems)
			} else {
				gr.sampleTargeted(rng, pt.Domain, elems)
			}
			if err := visit(elems); err != nil {
				return nil, err
			}
		}
	}
	rep.Placements = graded
	rep.ElapsedSec = time.Since(start).Seconds()
	if rep.ElapsedSec > 0 {
		rep.PlacementsPerSec = float64(graded) / rep.ElapsedSec
	}

	if firstViolation != nil {
		shrunk := gr.shrink(firstViolation, pt.Domain, pt.Kind, pt.Signed)
		rep.Counterexample = gr.describe(shrunk, pt.Domain)
		rep.CounterexampleT = len(shrunk)
		plan := buildPlan(gr.edges, shrunk, pt.Domain, pt.Kind, gr.seed)
		out, err := reliable.EvaluateIHC(pt.X, plan, pt.Signed, kr)
		if err != nil {
			return nil, fmt.Errorf("campaign: counterexample grading: %w", err)
		}
		rep.CounterexampleOutcome = &out
		timed, err := reliable.EvaluateTimed(pt.X, plan, pt.Signed, kr, core.Config{})
		if err != nil {
			return nil, fmt.Errorf("campaign: timed confirmation: %w", err)
		}
		rep.Confirmed = violates(out) && violates(timed)
		if !rep.Confirmed {
			return nil, fmt.Errorf("campaign: shrunk counterexample %v not confirmed (combinatorial %+v, timed %+v)",
				rep.Counterexample, out, timed)
		}
	}
	return rep, nil
}

// shrink greedily removes elements while the placement still violates the
// bound, yielding a 1-minimal counterexample: removing any single
// remaining element restores correct delivery.
func (gr *grader) shrink(elems []int, domain Domain, kind fault.Kind, signed bool) []int {
	cur := append([]int(nil), elems...)
	for {
		removed := false
		for i := range cur {
			cand := make([]int, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if violates(gr.grade(cand, domain, kind, signed)) {
				cur, removed = cand, true
				break
			}
		}
		if !removed {
			sort.Ints(cur)
			return cur
		}
	}
}

// forEachCombination enumerates all k-subsets of {0..n-1} in
// lexicographic order, reusing one backing slice.
func forEachCombination(n, k int, visit func([]int) error) error {
	if k == 0 {
		return visit(nil)
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if err := visit(idx); err != nil {
			return err
		}
		// Advance: find the rightmost index that can move.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return nil
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// sampleTargeted fills elems with a placement concentrated on one random
// (source, receiver) pair: each element is drawn from the links (or
// interior nodes) of the pair's γ directed-cycle routes, the only
// elements that can affect that pair at all. Shortfall from collisions is
// topped up uniformly.
func (gr *grader) sampleTargeted(rng *rand.Rand, domain Domain, elems []int) {
	t := len(elems)
	s := rng.Intn(gr.n)
	r := rng.Intn(gr.n - 1)
	if r >= s {
		r++
	}
	n32 := int32(gr.n)
	seen := make(map[int]bool, t)
	for tries := 0; len(seen) < t && tries < 8*t; tries++ {
		j := rng.Intn(gr.gamma)
		pos := gr.pos[j]
		ps := pos[s]
		d := pos[r] - ps
		if d < 0 {
			d += n32
		}
		if domain == DomainLinks {
			// A random crossed edge: arc position ps+o for o in [0, d).
			p := int((ps + int32(rng.Intn(int(d)))) % n32)
			c := gr.x.DirectedCycle(j)
			e := topology.NewEdge(c[p], c[(p+1)%gr.n])
			seen[gr.edgeIdx[e]] = true
		} else {
			if d < 2 {
				continue // no interior node on this cycle's route
			}
			k := 1 + int32(rng.Intn(int(d)-1))
			seen[int(gr.x.DirectedCycle(j)[int((ps+k)%n32)])] = true
		}
	}
	for len(seen) < t {
		cand := rng.Intn(domainSizeOf(gr, domain))
		if domain == DomainNodes && (cand == s || cand == r) {
			continue
		}
		seen[cand] = true
	}
	elems = elems[:0]
	for v := range seen {
		elems = append(elems, v)
	}
	sort.Ints(elems)
}

func domainSizeOf(gr *grader, domain Domain) int {
	if domain == DomainLinks {
		return len(gr.edges)
	}
	return gr.n
}

// sampleSubset fills elems with a uniform random t-subset of {0..n-1}
// (Floyd's algorithm), in sorted order.
func sampleSubset(rng *rand.Rand, n int, elems []int) {
	t := len(elems)
	seen := make(map[int]bool, t)
	for i := n - t; i < n; i++ {
		v := rng.Intn(i + 1)
		if seen[v] {
			v = i
		}
		seen[v] = true
	}
	elems = elems[:0]
	for v := range seen {
		elems = append(elems, v)
	}
	sort.Ints(elems)
}

// Frontier is the measured tolerance frontier of one (topology,
// signedness, domain, kind) series: per-t reports plus the two summary
// numbers an operator wants — the largest t with no violation found at
// any t' <= t, and the smallest t where the adversary won.
type Frontier struct {
	Topo      string    `json:"topo"`
	Signed    bool      `json:"signed"`
	Domain    string    `json:"domain"`
	Kind      string    `json:"kind"`
	Bound     int       `json:"bound"` // the paper's bound for this series
	MaxSafe   int       `json:"max_safe"`
	MinBroken int       `json:"min_broken"` // -1: no violation found up to tMax
	Reports   []*Report `json:"reports"`
}

// RunFrontier searches base's series at t = 1..tMax and summarizes the
// measured frontier. base.T is ignored.
func RunFrontier(base Point, cfg Search, tMax int) (*Frontier, error) {
	bound := reliable.DolevBound(base.X.Gamma(), base.X.N())
	if base.Signed {
		bound = reliable.SignedBound(base.X.Gamma())
	}
	f := &Frontier{
		Topo: base.name(), Signed: base.Signed,
		Domain: base.Domain.String(), Kind: base.Kind.String(),
		Bound: bound, MinBroken: -1,
	}
	for t := 1; t <= tMax; t++ {
		pt := base
		pt.T = t
		rep, err := RunPoint(pt, cfg)
		if err != nil {
			return nil, err
		}
		f.Reports = append(f.Reports, rep)
		if rep.Violations > 0 {
			f.MinBroken = t
			break
		}
		f.MaxSafe = t
	}
	return f, nil
}
