package repair

import (
	"ihc/internal/core"
)

// Run executes a full repair-enabled ATA broadcast: it builds a Manager
// for x, wires it into cfg (Control + PatchRoutes), and runs the IHC.
// Params are defaulted and η defaults to μ, mirroring the reliability
// graders. The returned Stats describe everything the repair layer did.
//
// NAK packets are delivered like copies, with negative Seq, to
// cfg.Observe and to any delivery log; coverage accounting must skip
// them, as reliable.EvaluateRepaired's tally does.
func Run(x *core.IHC, cfg core.Config, _ Config) (*core.Result, Stats, error) {
	cfg.Params = cfg.Params.Defaulted()
	if cfg.Eta == 0 {
		cfg.Eta = cfg.Params.Mu
	}
	m := NewManager(x, cfg.Params)
	cfg.Control = m
	cfg.PatchRoutes = m.PatchSpecs
	res, err := x.Run(cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	return res, m.Stats(), nil
}
