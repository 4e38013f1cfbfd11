package reliable

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/repair"
	"ihc/internal/topology"
)

// RepairedOutcome is the grade of a repair-enabled run plus the repair
// layer's activity counters and the latency cost of recovery.
type RepairedOutcome struct {
	Outcome
	Stats repair.Stats

	// Finish is the repaired run's completion time; Baseline is the
	// fault-free, repair-off completion time of the same configuration.
	// OverheadPct = 100·(Finish−Baseline)/Baseline.
	Finish      int64
	Baseline    int64
	OverheadPct float64
	// Events counts the engine events of the repaired run.
	Events int64
}

// EvaluateRepaired runs the IHC all-to-all broadcast through the simnet
// engine with the self-healing repair layer attached, under a temporal
// fault plan, and grades the delivered copies like EvaluateTimed. NAK
// packets (negative Seq) are control traffic and are excluded from the
// grade; retransmitted copies count as genuine copies of the original.
//
// cfg selects the execution exactly as in EvaluateTimed; rcfg goes to
// repair.Run, which derives every repair value from cfg.Params. The
// fault-free baseline run used for the overhead figure shares cfg but
// has no faults and no repair layer.
func EvaluateRepaired(x *core.IHC, tplan *fault.TemporalPlan, signed bool, kr *Keyring, cfg core.Config, rcfg repair.Config) (RepairedOutcome, error) {
	inj, err := tplan.Compile(x.Graph())
	if err != nil {
		return RepairedOutcome{}, err
	}
	cfg.Params = cfg.Params.Defaulted()
	if cfg.Eta == 0 {
		cfg.Eta = cfg.Params.Mu
	}
	cfg.RecordDeliveries = true
	cfg.SkipCopies = true

	base := cfg
	base.Fault = nil
	base.RecordDeliveries = false
	baseRes, err := x.Run(base)
	if err != nil {
		return RepairedOutcome{}, fmt.Errorf("reliable: repaired baseline run: %w", err)
	}

	cfg.Fault = inj
	res, st, err := repair.Run(x, cfg, rcfg)
	if err != nil {
		return RepairedOutcome{}, fmt.Errorf("reliable: repaired evaluation run: %w", err)
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
		return RepairedOutcome{}, fmt.Errorf("reliable: repaired evaluation: %w", err)
	}
	out := RepairedOutcome{
		Outcome: gradeCopies(n, copies, signed, func(v topology.Node) bool {
			return kind[v] != fault.Healthy
		}),
		Stats:    st,
		Finish:   int64(res.Finish),
		Baseline: int64(baseRes.Finish),
		Events:   res.Events,
	}
	if out.Baseline > 0 {
		out.OverheadPct = 100 * float64(out.Finish-out.Baseline) / float64(out.Baseline)
	}
	return out, nil
}
