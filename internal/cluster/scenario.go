package cluster

import (
	"time"

	"ihc/internal/chaos"
	"ihc/internal/fault"
	"ihc/internal/observe"
	"ihc/internal/simnet"
	"ihc/internal/stream"
)

// ChaosRound is the chaos one-shot round on Q3 that `ihcd -launch` and
// the cluster tests run, with node's timing: background frame chaos on
// every link (5% drop, 5% duplicate, 3% corrupt, 10% delayed by up to
// 3 ms), link {1,3} partitioned for stages [1,4), and node 6 crashing
// one stage in. By then its own stage-0 injections (η = 2 puts every
// even-position node in stage 0) have propagated, so the survivors
// still owe each other exactly γ copies of all N sources.
func ChaosRound(node stream.Config, seed int64) *chaos.Config {
	return &chaos.Config{
		Plan: &fault.TemporalPlan{
			Nodes: []fault.NodeFault{{Node: 6, Kind: fault.Crash, At: 1}},
			Links: []fault.LinkFault{{U: 1, V: 3, From: 1, Until: 4}},
		},
		TickDur:     node.Defaulted().StageDur, // plan ticks are whole stages
		Seed:        seed,
		DropRate:    0.05,
		DupRate:     0.05,
		CorruptRate: 0.03,
		DelayRate:   0.1,
		MaxDelay:    3 * time.Millisecond,
	}
}

// Soak is the streaming soak on Q3 that `ihcd -soak` and
// TestStreamSoakKillRestart run: node's Epochs at node's Period under
// background frame chaos (2% drop, 2% duplicate, 1% corrupt, 5%
// delayed), node 6 killed with zero notice after 4 periods and
// restarted cold 3 periods later, and link {1,3} (not incident to the
// victim) partitioned for 3 periods from period 9, while the rejoiner
// catches up. The load outruns the low-priority token bucket (~250
// low/s offered per node against 200/s admitted), so the soak also
// exercises shedding, which must hit only the low class. The caller
// sets KeySeed and Timeout.
func Soak(node stream.Config, seed int64) Config {
	period := node.Defaulted().Period
	node.Ingress = stream.IngressConfig{Rate: 200, Burst: 50}
	node.Drain = 10 * time.Second
	node.Gauges = &observe.StreamGauges{}
	tick := time.Millisecond
	return Config{
		Node: node,
		Chaos: &chaos.Config{
			Seed:     seed,
			DropRate: 0.02, DupRate: 0.02, CorruptRate: 0.01, DelayRate: 0.05,
			TickDur: tick,
			Plan: &fault.TemporalPlan{Links: []fault.LinkFault{{
				U: 1, V: 3,
				From:  simnet.Time(9 * period / tick),
				Until: simnet.Time(12 * period / tick),
			}}},
		},
		Load: LoadSpec{Interval: 3 * time.Millisecond, Bytes: 64, HighEvery: 4},
		Kill: &KillSpec{Node: 6, At: 4 * period, Downtime: 3 * period},
	}
}
