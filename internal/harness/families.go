package harness

import (
	"fmt"
	"strings"

	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/model"
	"ihc/internal/simnet"
	"ihc/internal/tablefmt"
	"ihc/internal/topology"
)

func init() {
	register(Experiment{ID: "families", Paper: "Sec. III (generalized)",
		Title: "Decomposition registry: twisted cubes and k-ary tori vs the per-link load bound", Run: runFamilies})
}

// runFamilies exercises the family table end-to-end: an overview of
// every family, the twisted-cube series checked
// against the Table II closed form, and the k-ary n-torus series
// checked against the Jung-Sakho per-link load bound τ_S+(N-1)μα.
func runFamilies(cfg Config) ([]*tablefmt.Table, error) {
	overview, err := familiesOverview()
	if err != nil {
		return nil, err
	}
	tq, err := familiesTwisted(cfg)
	if err != nil {
		return nil, err
	}
	kt, err := familiesKAry(cfg)
	if err != nil {
		return nil, err
	}
	return []*tablefmt.Table{overview, tq, kt}, nil
}

// familiesOverview lists every family hamilton.Parse resolves, with the
// instances its conformance battery runs. No simulation: New is lazy,
// so enumerating the families only computes invariants.
func familiesOverview() (*tablefmt.Table, error) {
	t := tablefmt.New("Decomposition registry — families answering hamilton.Parse/Decompose",
		"Key", "Family", "Conformance instances")
	for _, f := range hamilton.Families() {
		names := make([]string, 0, 4)
		for _, params := range f.Conformance {
			in, err := f.New(params...)
			if err != nil {
				return nil, err
			}
			names = append(names, fmt.Sprintf("%s (N=%d γ=%d)", in.Name, in.N, in.Gamma))
		}
		t.Addf(f.Key, f.Describe, strings.Join(names, ", "))
	}
	t.Note("each instance passes the five-property conformance battery: build validity, static")
	t.Note("contention-freeness, exact live-oracle finish, γ-copy ATA postcondition, multi-worker identity")
	return t, nil
}

// familiesTwisted runs IHC on the twisted cubes and requires the
// measured finish to equal the Table II closed form η(τ_S+μα+(N-2)α)
// exactly: the stage formula is topology-free for contention-free
// cut-through runs, so it holds verbatim on the twisted adjacency even
// in reduced-reliability mode (γ=4 < n for n >= 5).
func familiesTwisted(cfg Config) (*tablefmt.Table, error) {
	dims := []int{3, 4, 5}
	if !cfg.Quick {
		dims = append(dims, 6, 7, 8)
	}
	p := cfg.params()
	t := tablefmt.New("Twisted cubes — IHC finish vs the Table II closed form (η=μ)",
		"Network", "N", "γ", "η=μ", "Model", "Measured", "Match")
	rows, err := sweep(cfg, len(dims), func(i int, obs simnet.Observer) (row, error) {
		g := topology.MustTwistedCube(dims[i])
		x, err := newIHC(g)
		if err != nil {
			return nil, err
		}
		res, err := x.Run(core.Config{Eta: p.Mu, Params: p, SkipCopies: true, Observe: obs})
		if err != nil {
			return nil, err
		}
		cfg.addEvents(res.Events)
		want := model.IHCBest(p, g.N(), p.Mu)
		if res.Finish != want || res.Contentions != 0 {
			return nil, fmt.Errorf("families: %s finish %d != model %d (contentions %d)",
				g.Name(), res.Finish, want, res.Contentions)
		}
		return row{g.Name(), g.N(), x.Gamma(), p.Mu, want, res.Finish, match(res.Finish, want)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("TQ_3 decomposes into one Hamiltonian cycle (γ=2); TQ_n for n >= 4 into two (γ=4),")
	t.Note("full edge cover only at n=4 — n >= 5 runs reduced-reliability like odd hypercubes")
	return t, nil
}

// familiesKAry compares measured IHC finish on k-ary n-dimensional
// tori against the Jung-Sakho per-link load bound τ_S+(N-1)μα. At
// η=μ=1 IHC meets the bound exactly (Theorem 4 generalized); at μ>1
// the gap must be exactly the fixed pipelining term (η-1)(τ_S+μα).
// The η=μ=2 leg runs only on even-N sizes, where the interleaving is
// contention-free (N mod η = 0, as the oracle sweep requires).
func familiesKAry(cfg Config) (*tablefmt.Table, error) {
	type size struct{ k, n int }
	sizes := []size{{3, 2}, {4, 2}}
	if !cfg.Quick {
		sizes = append(sizes, size{5, 2}, size{3, 3}, size{6, 2})
	}
	type job struct {
		g  *topology.Graph
		mu int
	}
	var jobs []job
	for _, s := range sizes {
		g := topology.MustKAryTorus(s.k, s.n)
		jobs = append(jobs, job{g, 1})
		if g.N()%2 == 0 {
			jobs = append(jobs, job{g, 2})
		}
	}
	base := cfg.params()
	t := tablefmt.New("k-ary n-tori — IHC finish vs the Jung-Sakho per-link load bound τ_S+(N-1)μα",
		"Network", "N", "γ", "η=μ", "Bound", "Measured", "Gap", "(η-1)(τ_S+μα)")
	rows, err := sweep(cfg, len(jobs), func(i int, obs simnet.Observer) (row, error) {
		j := jobs[i]
		p := base
		p.Mu = j.mu
		x, err := newIHC(j.g)
		if err != nil {
			return nil, err
		}
		res, err := x.Run(core.Config{Eta: j.mu, Params: p, SkipCopies: true, Observe: obs})
		if err != nil {
			return nil, err
		}
		cfg.addEvents(res.Events)
		bound := model.JungSakhoBound(p, j.g.N())
		wantGap := simnet.Time(j.mu-1) * (p.TauS + p.PacketTime())
		if res.Contentions != 0 || res.Finish-bound != wantGap {
			return nil, fmt.Errorf("families: %s μ=%d finish %d vs bound %d: gap %d != %d (contentions %d)",
				j.g.Name(), j.mu, res.Finish, bound, res.Finish-bound, wantGap, res.Contentions)
		}
		return row{j.g.Name(), j.g.N(), x.Gamma(), j.mu, bound, res.Finish, res.Finish - bound, wantGap}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		t.Addf(r...)
	}
	t.Note("γ = 2n from the Jung-Sakho edge-disjoint Hamiltonian cycle construction; η=μ=1 meets")
	t.Note("the bound exactly, and the μ=2 gap is the constant pipelining overhead, independent of N")
	return t, nil
}
