package reliable

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/simnet"
	"ihc/internal/topology"
)

// EvaluateTimed runs the IHC all-to-all broadcast through the simnet
// event engine under a temporal fault plan and grades the delivered
// copies exactly like EvaluateIHC. Where the combinatorial evaluator
// propagates fates along routes in the abstract, this one compiles the
// plan into an engine hook, so the faults act at simulated timestamps: a
// node can crash between stages, a link can be down for a window and
// recover, and the grade reflects which copies were actually in flight
// when.
//
// cfg selects the execution (η, timing parameters, overlap, scratch);
// the zero Config picks the repository defaults with η = μ. cfg.Fault,
// cfg.RecordDeliveries, and cfg.SkipCopies are overridden — the grader
// owns them.
//
// Faulty-node grading matches EvaluateIHC: every node the plan names is
// excluded from the graded pairs regardless of its activation time, and
// a Byzantine node is two-faced as a source (TwoFacedPayload on odd
// cycles) from time zero even if its *relay* misbehaviour activates
// later — the payload choice happens at injection, which the engine does
// not model per-payload.
//
// For a statically-lifted plan the two evaluators agree exactly:
// EvaluateTimed(x, fault.FromStatic(p), ...) == EvaluateIHC(x, p, ...).
func EvaluateTimed(x *core.IHC, tplan *fault.TemporalPlan, signed bool, kr *Keyring, cfg core.Config) (Outcome, error) {
	inj, err := tplan.Compile(x.Graph())
	if err != nil {
		return Outcome{}, err
	}
	cfg.Params = cfg.Params.Defaulted()
	if cfg.Eta == 0 {
		cfg.Eta = cfg.Params.Mu
	}
	cfg.Fault = inj
	cfg.RecordDeliveries = true
	cfg.SkipCopies = true
	res, err := x.Run(cfg)
	if err != nil {
		return Outcome{}, fmt.Errorf("reliable: timed evaluation run: %w", err)
	}

	n := x.N()
	kind := make([]fault.Kind, n)
	if tplan != nil {
		for _, nf := range tplan.Nodes {
			kind[nf.Node] = nf.Kind
		}
	}
	copies, err := deliveredCopies(n, res.Deliveriesv, kind, signed, kr)
	if err != nil {
		return Outcome{}, fmt.Errorf("reliable: timed evaluation: %w", err)
	}
	return gradeCopies(n, copies, signed, func(v topology.Node) bool {
		return kind[v] != fault.Healthy
	}), nil
}

// deliveredCopies turns an engine delivery log into the per-(receiver,
// source) copy lists the voters grade, in delivery order. A source's
// payload — its truth, or for a Byzantine source the two-faced
// alternative on odd channels — is computed once and shared by all its
// intact copies; a corrupted copy carries its own corrupted payload and
// is invalid. In signed mode every intact copy round-trips through the
// keyring's MAC. All lists share one backing array, sized by a counting
// pass. NAK control packets (negative Seq, repair runs only) are not
// payload copies and are skipped.
func deliveredCopies(n int, ds []simnet.Delivery, kind []fault.Kind, signed bool, kr *Keyring) ([][][]Copy, error) {
	count := make([]int32, n*n)
	total := 0
	for _, d := range ds {
		if d.ID.Seq >= 0 {
			count[int(d.Node)*n+int(d.ID.Source)]++
			total++
		}
	}
	flat := make([]Copy, total)
	lists := make([][]Copy, n*n)
	off := 0
	for i, c := range count {
		lists[i] = flat[off : off : off+int(c)]
		off += int(c)
	}
	copies := make([][][]Copy, n)
	for r := range copies {
		copies[r] = lists[r*n : (r+1)*n : (r+1)*n]
	}
	truth := truthPayloads(n)
	twoFaced := make([][]byte, n)
	for v, k := range kind {
		if k == fault.Byzantine {
			twoFaced[v] = TwoFacedPayload(topology.Node(v))
		}
	}
	for _, d := range ds {
		if d.ID.Seq < 0 {
			continue
		}
		src, recv := d.ID.Source, d.Node
		payload := truth[src]
		if twoFaced[src] != nil && d.ID.Channel%2 == 1 {
			payload = twoFaced[src]
		}
		cp := Copy{Payload: payload, Valid: true}
		if d.Corrupted {
			cp = Copy{Payload: CorruptPayload(payload), Valid: false}
		}
		if signed && kr != nil && cp.Valid {
			msg, err := kr.Sign(Message{Source: src, Payload: cp.Payload})
			if err == nil {
				cp.Valid, err = kr.Verify(msg)
			}
			if err != nil {
				return nil, err
			}
		}
		copies[recv][src] = append(copies[recv][src], cp)
	}
	return copies, nil
}
