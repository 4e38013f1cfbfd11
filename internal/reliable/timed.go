package reliable

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/observe"
)

// EvaluateTimed runs the IHC all-to-all broadcast through the simnet
// event engine under a temporal fault plan and grades the delivered
// copies exactly like EvaluateIHC. Where the combinatorial evaluator
// propagates fates along routes in the abstract, this one compiles the
// plan into an engine hook, so the faults act at simulated timestamps: a
// node can crash between stages, a link can be down for a window and
// recover, and the grade reflects which copies were actually in flight
// when. Copies are tallied as the engine delivers them, through an
// observer teed after cfg.Observe; no delivery log is kept.
//
// cfg selects the execution (η, timing parameters, overlap, scratch);
// the zero Config picks the repository defaults with η = μ. cfg.Fault
// and cfg.SkipCopies are overridden — the grader owns them.
//
// Faulty-node grading matches EvaluateIHC: every node the plan names is
// excluded from the graded pairs regardless of its activation time, and
// a Byzantine node is two-faced as a source (TwoFacedPayload on odd
// cycles) from time zero even if its *relay* misbehaviour activates
// later — the payload choice happens at injection, which the engine does
// not model per-payload.
//
// For a static plan p the two evaluators agree exactly:
// EvaluateTimed(x, p, ...) == EvaluateIHC(x, p, ...).
func EvaluateTimed(x *core.IHC, tplan *fault.TemporalPlan, signed bool, kr *Keyring, cfg core.Config) (Outcome, error) {
	t, err := prepareTimed(x, tplan, &cfg)
	if err != nil {
		return Outcome{}, err
	}
	cfg.Observe = observe.Tee(cfg.Observe, t)
	if _, err := x.Run(cfg); err != nil {
		return Outcome{}, fmt.Errorf("reliable: timed evaluation run: %w", err)
	}
	out, err := t.grade(signed, kr)
	if err != nil {
		return Outcome{}, fmt.Errorf("reliable: timed evaluation: %w", err)
	}
	return out, nil
}

// prepareTimed is the set-up both engine graders share: it compiles
// tplan into cfg.Fault, defaults cfg's timing and η, turns off the copy
// matrix, and returns an empty tally over the plan's node faults.
func prepareTimed(x *core.IHC, tplan *fault.TemporalPlan, cfg *core.Config) (*tally, error) {
	inj, err := tplan.Compile(x.Graph())
	if err != nil {
		return nil, err
	}
	cfg.Params = cfg.Params.Defaulted()
	if cfg.Eta == 0 {
		cfg.Eta = cfg.Params.Mu
	}
	cfg.Fault = inj
	cfg.SkipCopies = true
	return newTally(nodeKinds(x.N(), tplan)), nil
}
