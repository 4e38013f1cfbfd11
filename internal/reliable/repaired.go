package reliable

import (
	"fmt"

	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/observe"
	"ihc/internal/repair"
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
// fault-free baseline run used for the overhead figure shares cfg
// (cfg.Observe included) but has no faults, no repair layer and no
// tally.
func EvaluateRepaired(x *core.IHC, tplan *fault.TemporalPlan, signed bool, kr *Keyring, cfg core.Config, rcfg repair.Config) (RepairedOutcome, error) {
	t, err := prepareTimed(x, tplan, &cfg)
	if err != nil {
		return RepairedOutcome{}, err
	}

	base := cfg
	base.Fault = nil
	baseRes, err := x.Run(base)
	if err != nil {
		return RepairedOutcome{}, fmt.Errorf("reliable: repaired baseline run: %w", err)
	}

	cfg.Observe = observe.Tee(cfg.Observe, t)
	res, st, err := repair.Run(x, cfg, rcfg)
	if err != nil {
		return RepairedOutcome{}, fmt.Errorf("reliable: repaired evaluation run: %w", err)
	}
	grade, err := t.grade(signed, kr)
	if err != nil {
		return RepairedOutcome{}, fmt.Errorf("reliable: repaired evaluation: %w", err)
	}
	out := RepairedOutcome{
		Outcome:  grade,
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
