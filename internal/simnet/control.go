package simnet

import (
	"fmt"

	"ihc/internal/topology"
)

// A Controller is an online observer/actuator attached to a single Run
// via Options.Control. It is the engine-side half of the repair layer:
// the engine tells it about deliveries and fired timers, and through the
// Runtime it may set further timers and inject new packets (NAKs,
// retransmissions) into the running simulation.
//
// All callbacks run synchronously inside the event loop, so a Controller
// needs no locking but must respect two re-entrancy rules:
//
//   - OnDeliver is invoked from deep inside hop handling, while the
//     engine still holds references into its spec table. It may call
//     Runtime.SetTimer and Runtime.Now but must NOT call Runtime.Inject.
//   - OnTimer is invoked from the top of the event loop with no live
//     engine state on the stack; it may use the full Runtime, including
//     Inject.
//
// A Controller that derives every decision from callback arguments and
// its own deterministic state preserves the engine's determinism oracle:
// timer events consume sequence numbers but never reorder packet events
// relative to each other, so a controller that injects nothing leaves
// the delivery stream byte-identical to an unattached run.
type Controller interface {
	// Attach is called once per Run, after the initial packets have been
	// scheduled but before the first event is processed. specs is the
	// engine's (scratch-owned) copy of the run's packets; it must be
	// treated as read-only and not retained past the run.
	Attach(rt *Runtime, specs []PacketSpec)
	// OnDeliver reports that packet pkt (an index into the spec table)
	// delivered a copy at node at simulated time at.
	OnDeliver(pkt int32, node topology.Node, at Time)
	// OnTimer reports that a timer set via Runtime.SetTimer fired.
	OnTimer(at Time, token int64)
}

// Runtime is the controller's handle into a running simulation. It is
// valid only for the duration of the Run that issued it.
type Runtime struct {
	st *runState
}

// Spec returns a copy of spec i. The Route slice inside the copy is
// shared with the engine and must not be modified.
func (rt *Runtime) Spec(i int32) PacketSpec { return rt.st.specs[i] }

// SetTimer schedules OnTimer(at, token) — at is clamped to the current
// event's time so a timer can never fire in the simulated past. The
// token waits in the run's token table, indexed by the timer's set
// sequence, so a timer costs one queue slot and, once the Scratch is
// warm, no allocation.
func (rt *Runtime) SetTimer(at Time, token int64) {
	st := rt.st
	if at < st.now {
		at = st.now
	}
	st.pushTimer(at, token)
}

// Inject adds a new packet to the running simulation and returns its
// index in the spec table. The spec goes through the same route
// compilation and validation as the packets the run started with
// (adjacency, duplicate directed links); its inject time is clamped to
// the current event's time. Dependencies (After) are not supported for
// mid-run injections — the controller is the dependency mechanism.
// Inject must only be called from OnTimer (see Controller).
func (rt *Runtime) Inject(spec PacketSpec) (int32, error) {
	st := rt.st
	i := int32(len(st.specs))
	if len(spec.Route) < 2 {
		return -1, fmt.Errorf("simnet: injected packet %v has route of %d nodes", spec.ID, len(spec.Route))
	}
	if len(st.specs) >= maxSpecs || len(spec.Route) >= maxRouteLen {
		return -1, fmt.Errorf("simnet: injected packet %v exceeds engine capacity (%d specs, route %d)",
			spec.ID, len(st.specs), len(spec.Route))
	}
	if len(spec.After) > 0 {
		return -1, fmt.Errorf("simnet: injected packet %v must not have dependencies", spec.ID)
	}
	if spec.Inject < st.now {
		spec.Inject = st.now
	}
	// Appends may grow st.arcs beyond the capacity prepare() reserved;
	// that is safe: previously compiled specArcs windows keep aliasing the
	// old backing array (whose contents never change), only new windows
	// land in the grown one.
	arcs, err := st.compileRoute(spec.Route, i+1)
	if err != nil {
		return -1, fmt.Errorf("simnet: injected packet %v %w", spec.ID, err)
	}
	st.specs = append(st.specs, spec)
	st.ownSpecs = st.specs
	st.specArcs = append(st.specArcs, arcs)
	st.children = append(st.children, nil)
	st.unmet = append(st.unmet, nil)
	st.ready = append(st.ready, 0)
	st.started = append(st.started, false)
	if st.opts.Fault != nil {
		st.corrupt = append(st.corrupt, false)
	}
	st.start(i, spec.Inject)
	return i, nil
}
