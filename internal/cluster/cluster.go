// Package cluster spins up a full IHC broadcast cluster — one
// stream.Node per network node — over either the in-process loopback
// mesh or real TCP sockets, optionally behind the chaos layer, and
// renders the per-node, per-epoch γ-copy verdicts. A run streams
// Epochs rounds; the default of one is a one-shot ATA round. It is the
// harness behind the transport and streaming tests, `ihcd -soak` and
// `make transport-quick`. `ihcd -launch` runs the same protocol as one
// OS process per node: it binds its sockets with Wire, each daemon
// builds its node with NodeConfig, and the launcher grades the round
// with CompareWithSimnet. The chaos round (ChaosRound) and the soak
// (Soak) are declared once, here, for the CLI and the tests alike.
//
// The harness can also kill a node mid-run, as close to SIGKILL as an
// in-process cluster gets: its context is cancelled with zero notice,
// its endpoint closes, and every frame still addressed to it is read
// off the wire and discarded, exactly what a dead process's kernel
// does to its sockets. A chaos-plan crash is such a kill for good. A
// KillSpec restarts the node after its downtime: the same endpoint goes
// to a brand-new stream.Node with no state but the keyring, which must
// rediscover the epoch via the JOIN handshake and catch up.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"ihc/internal/chaos"
	"ihc/internal/core"
	"ihc/internal/hlc"
	"ihc/internal/observe"
	"ihc/internal/reliable"
	"ihc/internal/simnet"
	"ihc/internal/stream"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

// setupDelay is how far in the future Run places epoch 0's stage 0,
// leaving time to build every node.
const setupDelay = 100 * time.Millisecond

// Config shapes one cluster run.
type Config struct {
	// Node is every node's stream.Config template; NodeConfig turns it
	// into node v's config, and Run owns Join besides. Epochs defaults
	// to 1; every other zero field takes stream.Config's default.
	Node stream.Config
	// KeySeed derives the cluster's HMAC keyring.
	KeySeed int64
	// TCP selects real sockets; false runs the loopback mesh, whose
	// per-hop latency is Node's HopLatency.
	TCP bool
	// Chaos, when non-nil, interposes the compiled fault plan on every
	// link (loopback filter or per-arc TCP proxies) and kills the
	// plan's crashed nodes for good. Its Epoch is overridden with the
	// cluster's.
	Chaos *chaos.Config
	// Timeout bounds the whole run. Default 30s.
	Timeout time.Duration
	// Load shapes the synthetic client load on each node's ingress; a
	// zero Load disables the generators.
	Load LoadSpec
	// Kill, when non-nil, schedules the mid-run kill and restart of
	// one node (loopback only).
	Kill *KillSpec
}

// KillSpec schedules the mid-run kill and restart of one node.
type KillSpec struct {
	Node topology.Node
	// At is the kill time as an offset from epoch 0's scheduled start;
	// Downtime is how long the node stays dead before restarting.
	At       time.Duration
	Downtime time.Duration
}

// LoadSpec shapes the synthetic client load each node's ingress
// receives while the stream runs.
type LoadSpec struct {
	// Interval between submissions per node; Bytes per payload.
	Interval time.Duration
	Bytes    int
	// HighEvery marks every k-th submission high-priority (0 = all low).
	HighEvery int
}

func (c Config) defaulted() Config {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Node.Epochs <= 0 {
		c.Node.Epochs = 1
	}
	return c
}

// validate rejects a configuration the harness cannot execute.
func (c Config) validate() error {
	if c.Node.IHC == nil {
		return fmt.Errorf("cluster: config needs an IHC schedule")
	}
	if k := c.Kill; k != nil {
		switch {
		case k.Node < 0 || int(k.Node) >= c.Node.IHC.N():
			return fmt.Errorf("cluster: kill node %d outside [0,%d)", k.Node, c.Node.IHC.N())
		case k.At < 0:
			return fmt.Errorf("cluster: kill time %s is negative", k.At)
		case k.Downtime <= 0:
			return fmt.Errorf("cluster: kill downtime %s must be positive", k.Downtime)
		case c.TCP:
			return fmt.Errorf("cluster: kill and restart is loopback-only")
		}
	}
	return nil
}

// Result is one cluster run's outcome.
type Result struct {
	Epochs int
	Kill   *KillSpec
	// Nodes holds each surviving node's epoch verdicts in epoch order,
	// merged across its lifetimes (a killed and restarted node has two:
	// pre-kill and post-rejoin). Nodes the chaos plan crashed are listed
	// in Crashed instead.
	Nodes   map[topology.Node][]stream.EpochResult
	Crashed []topology.Node
	// RunErrs records per-node transport/context errors (the
	// cancellation that ends a killed lifetime excluded).
	RunErrs map[topology.Node]error
	// NaksSent sums pulls across surviving nodes and lifetimes.
	NaksSent int
	Snapshot observe.StreamSnapshot
}

// Verify renders the run's verdict:
//   - every survivor completed every epoch with the exact γ-copy
//     ledger postcondition (a permanently crashed source's later epochs
//     cannot complete, so they fail here);
//   - the killed node (if any) completed every epoch too, across its
//     two lifetimes — pre-kill live rounds plus post-rejoin catch-up —
//     with at least one catch-up completion proving the rejoin path ran;
//   - no node's run failed, no high-priority payload was shed, and no
//     node held more than stream.MaxInflight live epochs open at once.
func (r *Result) Verify() error {
	if len(r.Nodes) == 0 {
		return fmt.Errorf("cluster: no surviving nodes")
	}
	for v, results := range r.Nodes {
		killed := r.Kill != nil && r.Kill.Node == v
		done := make(map[uint32]bool)
		caughtUp := 0
		for _, er := range results {
			if er.Completed && er.LedgerErr != nil {
				return fmt.Errorf("cluster: node %d epoch %d ledger: %w", v, er.Epoch, er.LedgerErr)
			}
			if er.Completed {
				done[er.Epoch] = true
				if er.CatchUp {
					caughtUp++
				}
			} else if !killed {
				return fmt.Errorf("cluster: survivor %d failed epoch %d", v, er.Epoch)
			}
		}
		for e := 0; e < r.Epochs; e++ {
			if !done[uint32(e)] {
				return fmt.Errorf("cluster: node %d never completed epoch %d (%d/%d done)", v, e, len(done), r.Epochs)
			}
		}
		if killed && caughtUp == 0 {
			return fmt.Errorf("cluster: killed node %d completed all epochs without any catch-up round — the kill happened too late to bite", v)
		}
	}
	for v, err := range r.RunErrs {
		if err != nil {
			return fmt.Errorf("cluster: node %d run: %w", v, err)
		}
	}
	if r.Snapshot.ShedHigh > 0 {
		return fmt.Errorf("cluster: %d high-priority payloads shed", r.Snapshot.ShedHigh)
	}
	if p := r.Snapshot.PeakInflight; p > stream.MaxInflight {
		return fmt.Errorf("cluster: a node held %d live epochs open, above the cap of %d", p, stream.MaxInflight)
	}
	return nil
}

// Run executes one cluster run and returns the per-node results.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.defaulted()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := cfg.Node.IHC.Graph()
	n := g.N()
	keyring := reliable.NewKeyring(n, cfg.KeySeed)
	epoch0 := time.Now().Add(setupDelay)

	var plan *chaos.Plan
	crashes := map[topology.Node]time.Duration{}
	if cfg.Chaos != nil {
		cc := *cfg.Chaos
		cc.Graph = g
		cc.Epoch = epoch0
		var err error
		plan, err = chaos.NewPlan(cc)
		if err != nil {
			return nil, err
		}
		crashes = plan.Crashes()
	}

	endpoints := make([]transport.Endpoint, n)
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()

	if cfg.TCP {
		w, err := Wire(g, plan)
		if err != nil {
			return nil, err
		}
		closers = append(closers, w.Close)
		for v := 0; v < n; v++ {
			ep, err := transport.NewTCP(transport.TCPConfig{
				Self: topology.Node(v), Graph: g, Listener: w.Listeners[v], Peers: w.Books[v],
			})
			if err != nil {
				return nil, fmt.Errorf("cluster: node %d endpoint: %w", v, err)
			}
			endpoints[v] = ep
			closers = append(closers, func() { ep.Close() })
		}
	} else {
		lbCfg := transport.LoopbackConfig{Graph: g, Latency: cfg.Node.Defaulted().HopLatency, Epoch: epoch0}
		if plan != nil {
			lbCfg.Filter = plan
		}
		lb, err := transport.NewLoopback(lbCfg)
		if err != nil {
			return nil, err
		}
		closers = append(closers, func() { lb.Close() })
		for v := 0; v < n; v++ {
			if endpoints[v], err = lb.Endpoint(topology.Node(v)); err != nil {
				return nil, err
			}
		}
	}

	runCtx, cancelAll := context.WithTimeout(ctx, cfg.Timeout)
	defer cancelAll()
	serveCtx, stopServing := context.WithCancel(context.Background())
	defer stopServing()

	type outcome struct {
		node topology.Node
		res  *stream.Result
		err  error
	}
	results := make(chan outcome, n+1)
	var wg sync.WaitGroup

	// startLoad feeds nd's ingress until load is cancelled or the
	// ingress closes.
	startLoad := func(nd *stream.Node, load context.Context) {
		if cfg.Load.Interval <= 0 {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cfg.Load.Interval)
			defer tick.Stop()
			i := 0
			for {
				select {
				case <-load.Done():
					return
				case <-tick.C:
					i++
					pri := stream.Low
					if cfg.Load.HighEvery > 0 && i%cfg.Load.HighEvery == 0 {
						pri = stream.High
					}
					payload := make([]byte, cfg.Load.Bytes)
					for j := range payload {
						payload[j] = byte(i + j)
					}
					// ErrShed is the point; ErrClosed means the
					// node's last epoch has taken its batch.
					if errors.Is(nd.Ingress().Submit(payload, pri), stream.ErrClosed) {
						return
					}
				}
			}
		}()
	}

	// start runs one lifetime of node v and returns the func that ends
	// it with zero notice.
	start := func(v topology.Node, join bool) (func(), error) {
		sc := cfg.NodeConfig(v, endpoints[v], keyring, epoch0)
		sc.Join = join
		nd, err := stream.NewNode(sc)
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", v, err)
		}
		life, stopRun := context.WithCancel(runCtx)
		serve, stopServe := context.WithCancel(serveCtx)
		load, stopLoad := context.WithCancel(life)
		startLoad(nd, load)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := nd.Run(life)
			// A finished stream takes no more client load.
			stopLoad()
			results <- outcome{node: v, res: res, err: err}
			// Keep answering pulls and JOINs: a finished (or even a
			// partially failed) node may be a straggler's only
			// provider. A killed lifetime stays silent: dead is dead.
			if err == nil {
				nd.Serve(serve)
			}
		}()
		return func() { stopRun(); stopServe() }, nil
	}

	// kill silences node v at epoch0+at (see the package comment) and,
	// when downtime > 0, restarts it cold after that long.
	kill := func(v topology.Node, stop func(), at, downtime time.Duration) {
		defer wg.Done()
		restarts := downtime > 0
		select {
		case <-runCtx.Done():
			if restarts {
				results <- outcome{node: v, err: runCtx.Err()}
			}
			return
		case <-time.After(time.Until(epoch0.Add(at))):
		}
		stop()
		endpoints[v].Close() // TCP peers see real connection resets
		var up <-chan time.Time
		if restarts {
			up = time.After(downtime)
		}
		inbox := endpoints[v].Recv()
		for {
			select {
			case <-runCtx.Done():
				if restarts {
					results <- outcome{node: v, err: runCtx.Err()}
				}
				return
			case _, ok := <-inbox:
				if !ok {
					inbox = nil
				}
			case <-up:
				if _, err := start(v, true); err != nil {
					results <- outcome{node: v, err: err}
				}
				return
			}
		}
	}

	stops := make([]func(), n)
	for v := 0; v < n; v++ {
		var err error
		if stops[v], err = start(topology.Node(v), false); err != nil {
			return nil, err
		}
	}
	expect := n
	for v, at := range crashes {
		wg.Add(1)
		go kill(v, stops[v], at, 0)
	}
	if k := cfg.Kill; k != nil {
		expect++ // the victim reports twice: pre-kill and post-rejoin
		wg.Add(1)
		go kill(k.Node, stops[k.Node], k.At, k.Downtime)
	}

	res := &Result{
		Epochs:  cfg.Node.Epochs,
		Kill:    cfg.Kill,
		Nodes:   make(map[topology.Node][]stream.EpochResult),
		RunErrs: make(map[topology.Node]error),
	}
	for v := range crashes {
		res.Crashed = append(res.Crashed, v)
	}
	slices.Sort(res.Crashed)
	for i := 0; i < expect; i++ {
		oc := <-results
		if _, crashed := crashes[oc.node]; crashed {
			continue
		}
		if oc.res != nil {
			res.Nodes[oc.node] = append(res.Nodes[oc.node], oc.res.Epochs...)
			res.NaksSent += oc.res.NaksSent
		}
		// The victim's first lifetime ends in context.Canceled by
		// design; only unexpected errors count.
		killed := cfg.Kill != nil && cfg.Kill.Node == oc.node && oc.err == context.Canceled
		if oc.err != nil && !killed {
			res.RunErrs[oc.node] = oc.err
		}
	}
	stopServing()
	cancelAll()
	wg.Wait()
	for _, ers := range res.Nodes {
		sort.Slice(ers, func(i, j int) bool { return ers[i].Epoch < ers[j].Epoch })
	}
	res.Snapshot = cfg.Node.Gauges.Snapshot()
	return res, nil
}

// NodeConfig turns the template c.Node into node v's stream.Config:
// Self, Endpoint, Keyring and Epoch0 as given, Retry seeded for v by
// seededFor, a fresh Clock, and at least one epoch. With no Load, node
// v injects reliable.TruthPayload(v) every epoch, as a one-shot round
// does; otherwise its ingress feeds each epoch. Run builds every node
// lifetime with it, and an ihcd daemon its one node.
func (c Config) NodeConfig(v topology.Node, ep transport.Endpoint, kr *reliable.Keyring, epoch0 time.Time) stream.Config {
	sc := c.defaulted().Node
	sc.Self, sc.Endpoint, sc.Keyring, sc.Epoch0 = v, ep, kr, epoch0
	sc.Retry = seededFor(sc.Retry, v)
	sc.Clock = hlc.New()
	sc.Payload = nil
	if c.Load.Interval <= 0 {
		sc.Payload = func(uint32) []byte { return reliable.TruthPayload(v) }
	}
	return sc
}

// Wiring is a TCP cluster's sockets before any node starts: one bound
// listener per node and each node's address book, mapping every
// neighbor to its listener or, under a chaos plan, to the proxy on
// that arc.
type Wiring struct {
	Listeners []net.Listener
	Books     []map[topology.Node]string
	proxies   *chaos.ProxyMesh
}

// Wire binds a loopback listener for every node of g and, when plan is
// non-nil, a chaos proxy for every arc, then renders the address
// books. The listeners stay bound until the proxies have their ports,
// so no proxy can take a node's port. Close releases everything Wire
// bound; closing a listener an endpoint already closed is harmless.
func Wire(g *topology.Graph, plan *chaos.Plan) (*Wiring, error) {
	n := g.N()
	w := &Wiring{Listeners: make([]net.Listener, 0, n), Books: make([]map[topology.Node]string, n)}
	addrs := make(map[topology.Node]string, n)
	for v := 0; v < n; v++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("cluster: bind node %d: %w", v, err)
		}
		w.Listeners = append(w.Listeners, ln)
		addrs[topology.Node(v)] = ln.Addr().String()
	}
	book := func(v topology.Node) map[topology.Node]string {
		out := make(map[topology.Node]string)
		for _, nb := range g.Neighbors(v) {
			out[nb] = addrs[nb]
		}
		return out
	}
	if plan != nil {
		pm, err := chaos.NewProxyMesh(plan, addrs)
		if err != nil {
			w.Close()
			return nil, err
		}
		w.proxies, book = pm, pm.Addrs
	}
	for v := range w.Books {
		w.Books[v] = book(topology.Node(v))
	}
	return w, nil
}

// Close closes every proxy and listener Wire bound.
func (w *Wiring) Close() {
	if w.proxies != nil {
		w.proxies.Close()
	}
	for _, ln := range w.Listeners {
		ln.Close()
	}
}

// seededFor is the one per-node retry-seed rule: it decorrelates
// per-node retry jitter while keeping the whole cluster deterministic
// under one seed.
func seededFor(b transport.BackoffConfig, v topology.Node) transport.BackoffConfig {
	if b.Seed != 0 {
		b.Seed = b.Seed*6364136223846793005 + int64(v) + 1
	}
	return b
}

// CompareWithSimnet checks every epoch of every node in res against
// the discrete-event engine's delivery multiset on the same schedule:
// for each receiver r and source s ≠ r, the channels r's copies of s
// arrived on, listed in channel order, must be exactly {0..γ−1}, in the
// number the engine's CopyMatrix records for (r, s). It is the
// acceptance bridge between the two executions — same topology, same
// schedule, same multiset — and the delivery check both Run's callers
// and `ihcd -launch` apply.
func CompareWithSimnet(x *core.IHC, eta int, res *Result) error {
	sim, err := x.Run(core.Config{Eta: eta, Params: simnet.Params{}.Defaulted()})
	if err != nil {
		return fmt.Errorf("cluster: simnet reference run: %w", err)
	}
	if sim.Copies == nil {
		return fmt.Errorf("cluster: simnet reference run recorded no copy matrix")
	}
	n := x.N()
	gamma := x.Gamma()
	for r, results := range res.Nodes {
		for _, er := range results {
			for s := 0; s < n; s++ {
				src := topology.Node(s)
				if src == r {
					continue
				}
				chans := er.Copies[src]
				if want := sim.Copies.Get(r, src); len(chans) != want {
					return fmt.Errorf("cluster: node %d epoch %d holds %d copies from source %d, simnet delivered %d", r, er.Epoch, len(chans), s, want)
				}
				if len(chans) != gamma {
					return fmt.Errorf("cluster: node %d epoch %d holds %d copies from source %d, want γ=%d", r, er.Epoch, len(chans), s, gamma)
				}
				for j, ch := range chans {
					if int(ch) != j {
						return fmt.Errorf("cluster: node %d epoch %d: copies from source %d arrived on channels %v, want one per channel 0..%d", r, er.Epoch, s, chans, gamma-1)
					}
				}
			}
		}
	}
	return nil
}
