// Command ihcd is the IHC node daemon: one process per network node,
// executing the interleaved all-to-all broadcast schedule over real TCP
// sockets with wall-clock stage starts, HLC drift correction, and
// pull-based repair.
//
// Daemon mode (default) runs a single node:
//
//	ihcd -node 3 -m 3 -eta 2 -listen 127.0.0.1:4003 -peers book.json -epoch <unixnano>
//
// where book.json maps neighbor ids to dial addresses. The daemon runs
// one ATA round — a one-epoch stream.Node — prints its RESULT verdict
// as JSON on stdout, then keeps serving repair pulls until SIGTERM
// (exit 0) — a finished node may be a straggler's only provider.
//
// Launch mode orchestrates a whole local cluster:
//
//	ihcd -launch -m 3 -eta 2            # chaos round: partition + crash
//	ihcd -launch -faultfree             # clean round, compared against simnet
//
// The launcher spawns one child daemon per node, interposes a chaos
// proxy on every directed link (chaos mode), SIGKILLs the crash victim
// mid-round, collects every child's RESULT, asserts the γ-copy ledger
// postcondition and the simulator's delivery multiset on all
// survivors, and exits nonzero on any violation.
//
// Soak mode streams pipelined epochs over the in-process loopback mesh
// with the full chaos script — background frame faults, a partition
// window, and one node killed mid-stream and restarted cold (rejoining
// via the epoch handshake):
//
//	ihcd -soak -epochs 24 -period 150ms
//
// It prints the streaming gauges (throughput, shed counts, latency
// percentiles) and exits nonzero unless cluster.Result.Verify passes:
// every node completed every epoch with the exact γ-copy ledger
// postcondition, no high-priority payload was shed, and no node held
// more than stream.MaxInflight live epochs open at once.
//
// ihcd is a thin CLI over internal/cluster: the chaos round
// (cluster.ChaosRound) and the soak (cluster.Soak) are declared there,
// a launch binds its listeners, proxies and address books with
// cluster.Wire, and every daemon builds its node with
// cluster.Config.NodeConfig, as cluster.Run does for each of its
// nodes. Every mode runs stream.Config's default timing and repair
// settings.
//
// Both -launch and -soak accept -deadline: a hard wall-clock budget
// enforced by a watchdog that kills any child processes and exits 4.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ihc/internal/chaos"
	"ihc/internal/cluster"
	"ihc/internal/core"
	"ihc/internal/hamilton"
	"ihc/internal/reliable"
	"ihc/internal/stream"
	"ihc/internal/topology"
	"ihc/internal/transport"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ihcd: "+format+"\n", args...)
	os.Exit(1)
}

// watchdog enforces a hard wall-clock budget on an orchestration mode:
// when the deadline expires it kills every registered child process and
// exits 4 — a distinct code so CI can tell "hung" from "failed".
type watchdog struct {
	mu    sync.Mutex
	kills []func()
}

// add registers a cleanup to run on expiry (child kill, proxy close).
func (w *watchdog) add(f func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.kills = append(w.kills, f)
}

// arm starts the timer; d <= 0 disables the watchdog.
func (w *watchdog) arm(d time.Duration, label string) {
	if d <= 0 {
		return
	}
	go func() {
		time.Sleep(d)
		w.mu.Lock()
		kills := append([]func(){}, w.kills...)
		w.mu.Unlock()
		fmt.Fprintf(os.Stderr, "ihcd: %s exceeded -deadline %s; killing children and exiting 4\n", label, d)
		for _, f := range kills {
			f()
		}
		os.Exit(4)
	}()
}

// result is the JSON verdict a daemon prints after its round.
type result struct {
	Node      int            `json:"node"`
	OK        bool           `json:"ok"`
	LedgerErr string         `json:"ledger_err,omitempty"`
	Exhausted int            `json:"exhausted"` // copies missing: (N−1)·γ minus those held
	Repaired  int            `json:"repaired"`
	Naks      int            `json:"naks"`
	Copies    map[int][]int  `json:"copies"` // source -> channels received
	Stats     map[string]int `json:"stats"`
	Interrupt bool           `json:"interrupted,omitempty"`
}

func main() {
	var (
		launch    = flag.Bool("launch", false, "orchestrate a full local cluster instead of running one node")
		faultfree = flag.Bool("faultfree", false, "launch mode: run without chaos and compare deliveries against the simulator")
		m         = flag.Int("m", 3, "hypercube dimension (N = 2^m nodes)")
		eta       = flag.Int("eta", 2, "interleaving distance η")
		node      = flag.Int("node", -1, "this daemon's node id (daemon mode)")
		listen    = flag.String("listen", "127.0.0.1:0", "listen address (daemon mode)")
		peersPath = flag.String("peers", "", "path to the JSON neighbor address book (daemon mode)")
		epochNano = flag.Int64("epoch", 0, "cluster epoch: wall-clock start of stage 0, Unix nanoseconds")
		keySeed   = flag.Int64("key-seed", 7, "HMAC keyring master seed")
		seed      = flag.Int64("seed", 99, "chaos / retry-jitter seed")
		timeout   = flag.Duration("timeout", 30*time.Second, "round timeout")
		soak      = flag.Bool("soak", false, "stream pipelined epochs over loopback with kill/restart + partition chaos")
		epochs    = flag.Int("epochs", 24, "soak mode: epochs to stream")
		period    = flag.Duration("period", 150*time.Millisecond, "soak mode: epoch cadence")
		deadline  = flag.Duration("deadline", 0, "launch/soak: hard wall-clock budget; on expiry children are killed and the exit code is 4 (0 = off)")
	)
	flag.Parse()

	x, err := buildIHC(*m)
	if err != nil {
		fail("%v", err)
	}
	// The node template every mode runs: a daemon directly, the soak
	// through cluster.Run, a launch through the flags it hands its
	// children. Timing and repair take stream.Config's defaults; -seed
	// seeds the retry jitter.
	tmpl := stream.Config{IHC: x, Eta: *eta, Retry: transport.BackoffConfig{Seed: *seed}}
	wd := &watchdog{}
	if *soak {
		wd.arm(*deadline, "soak")
		tmpl.Epochs, tmpl.Period = *epochs, *period
		os.Exit(runSoak(tmpl, *keySeed, *seed, *timeout))
	}
	if *launch {
		wd.arm(*deadline, "launch")
		os.Exit(runLaunch(tmpl, *m, *faultfree, *keySeed, *seed, *timeout, wd))
	}
	if *node < 0 {
		fail("daemon mode needs -node (or use -launch)")
	}
	os.Exit(runDaemon(tmpl, topology.Node(*node), *listen, *peersPath, *epochNano, *keySeed, *timeout))
}

func buildIHC(m int) (*core.IHC, error) {
	g, err := topology.Hypercube(m)
	if err != nil {
		return nil, err
	}
	cycles, err := hamilton.Decompose(g)
	if err != nil {
		return nil, err
	}
	return core.New(g, cycles)
}

// ---------------------------------------------------------------------------
// Daemon mode

func runDaemon(tmpl stream.Config, self topology.Node, listen, peersPath string, epochNano, keySeed int64, timeout time.Duration) int {
	x := tmpl.IHC
	if peersPath == "" {
		fail("daemon mode needs -peers")
	}
	raw, err := os.ReadFile(peersPath)
	if err != nil {
		fail("read peers: %v", err)
	}
	var book map[topology.Node]string
	if err := json.Unmarshal(raw, &book); err != nil {
		fail("parse peers: %v", err)
	}
	epoch := time.Unix(0, epochNano)
	if epochNano == 0 {
		epoch = time.Now().Add(time.Second)
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		fail("listen %s: %v", listen, err)
	}
	ep, err := transport.NewTCP(transport.TCPConfig{Self: self, Graph: x.Graph(), Listener: ln, Peers: book})
	if err != nil {
		fail("%v", err)
	}
	defer ep.Close()

	// One round is a one-epoch stream, built as cluster.Run builds each
	// of its nodes.
	nd, err := stream.NewNode(cluster.Config{Node: tmpl}.NodeConfig(self, ep, reliable.NewKeyring(x.N(), keySeed), epoch))
	if err != nil {
		fail("%v", err)
	}

	// SIGINT/SIGTERM cancel the round; a signal before the round
	// completes is an interrupted (nonzero) exit, after it a clean one.
	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	runCtx, cancelRun := context.WithTimeout(sigCtx, timeout)
	defer cancelRun()

	res, runErr := nd.Run(runCtx)
	interrupted := runErr != nil && sigCtx.Err() != nil

	var round stream.EpochResult // stays zero if the epoch never closed
	if len(res.Epochs) > 0 {
		round = res.Epochs[0]
	}
	out := result{
		Node:      int(self),
		OK:        runErr == nil && round.Completed && round.LedgerErr == nil,
		Exhausted: (x.N() - 1) * x.Gamma(),
		Repaired:  round.Repaired,
		Naks:      res.NaksSent,
		Copies:    make(map[int][]int),
		Stats: map[string]int{
			"sent": int(res.Stats.Sent), "received": int(res.Stats.Received),
			"send_errors": int(res.Stats.SendErrors), "reconnects": int(res.Stats.Reconnects),
			"dial_fails": int(res.Stats.DialFails),
		},
		Interrupt: interrupted,
	}
	if round.LedgerErr != nil {
		out.LedgerErr = round.LedgerErr.Error()
	}
	for src, chans := range round.Copies { // each list in channel order
		cs := make([]int, len(chans))
		for i, c := range chans {
			cs[i] = int(c)
		}
		out.Copies[int(src)] = cs
		out.Exhausted -= len(chans)
	}
	// The RESULT line is the machine-readable verdict the launcher
	// scrapes; flush it even when interrupted so a dying campaign
	// still reports partial state.
	enc, _ := json.Marshal(out)
	fmt.Printf("RESULT %s\n", enc)
	os.Stdout.Sync()

	if interrupted {
		return 3
	}
	if runErr != nil || !out.OK {
		// Keep serving briefly anyway: our stored copies may complete
		// someone else's round even if ours failed.
		nd.Serve(sigCtx)
		return 2
	}
	// Round complete: serve repair pulls until told to stop.
	nd.Serve(sigCtx)
	return 0
}

// ---------------------------------------------------------------------------
// Soak mode

// runSoak runs cluster.Soak on the template's epochs and period and
// prints its gauges and verdict.
func runSoak(tmpl stream.Config, keySeed, seed int64, timeout time.Duration) int {
	cfg := cluster.Soak(tmpl, seed)
	cfg.KeySeed, cfg.Timeout = keySeed, timeout
	k, part, tick := cfg.Kill, cfg.Chaos.Plan.Links[0], cfg.Chaos.TickDur
	fmt.Printf("ihcd: soaking %s: %d epochs @ %s, ≤%d inflight; kill node %d at %s for %s, partition {%d,%d} at %s for %s\n",
		tmpl.IHC.Graph().Name(), tmpl.Epochs, tmpl.Defaulted().Period, stream.MaxInflight, k.Node, k.At, k.Downtime,
		part.U, part.V, time.Duration(part.From)*tick, time.Duration(part.Until-part.From)*tick)

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	start := time.Now()
	res, err := cluster.Run(sigCtx, cfg)
	if err != nil {
		fail("soak: %v", err)
	}
	elapsed := time.Since(start)

	snap := res.Snapshot
	fmt.Print(snap.Summary())
	verdictErr := res.Verify()
	out := map[string]any{
		"ok":       verdictErr == nil,
		"epochs":   tmpl.Epochs,
		"elapsed":  elapsed.String(),
		"naks":     res.NaksSent,
		"snapshot": snap,
	}
	if verdictErr != nil {
		out["err"] = verdictErr.Error()
	}
	enc, _ := json.Marshal(out)
	fmt.Printf("RESULT %s\n", enc)
	if verdictErr != nil {
		fmt.Fprintf(os.Stderr, "ihcd: soak FAILED: %v\n", verdictErr)
		return 1
	}
	fmt.Printf("ihcd: soak complete in %s: all %d nodes completed %d epochs (γ-copy exact), %d caught up after the kill, 0 high-priority sheds\n",
		elapsed.Round(time.Millisecond), tmpl.IHC.N(), tmpl.Epochs, snap.EpochsCaughtUp)
	return 0
}

// ---------------------------------------------------------------------------
// Launch mode

type child struct {
	cmd    *exec.Cmd
	res    *result
	exited bool
	killed atomic.Bool // SIGKILLed by the launcher: the plan's crash
}

// report is a child's RESULT line, or its exit status when res is nil.
type report struct {
	node topology.Node
	res  *result
	err  error
}

// launchErr reports a launch failure once children may be running:
// unlike fail it returns, so the deferred cleanup kills them.
func launchErr(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "ihcd: "+format+"\n", args...)
	return 1
}

func runLaunch(tmpl stream.Config, m int, faultfree bool, keySeed, seed int64, timeout time.Duration, wd *watchdog) int {
	g := tmpl.IHC.Graph()
	n := g.N()
	gamma := tmpl.IHC.Gamma()
	self, err := os.Executable()
	if err != nil {
		fail("locate own binary: %v", err)
	}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	epoch := time.Now().Add(1500 * time.Millisecond)
	var plan *chaos.Plan
	crashes := map[topology.Node]time.Duration{}
	if !faultfree {
		cc := cluster.ChaosRound(tmpl, seed)
		cc.Graph, cc.Epoch = g, epoch
		if plan, err = chaos.NewPlan(*cc); err != nil {
			fail("%v", err)
		}
		crashes = plan.Crashes()
	}
	w, err := cluster.Wire(g, plan)
	if err != nil {
		fail("%v", err)
	}
	defer w.Close()

	// Per-child address books.
	dir, err := os.MkdirTemp("", "ihcd-launch-")
	if err != nil {
		fail("%v", err)
	}
	defer os.RemoveAll(dir)

	children := make(map[topology.Node]*child, n)
	defer func() {
		for _, c := range children {
			c.cmd.Process.Kill()
		}
	}()
	// Each child binds its node's address itself: close the listeners
	// Wire holds for them just before the children start.
	listen := make([]string, n)
	for v, ln := range w.Listeners {
		listen[v] = ln.Addr().String()
		ln.Close()
	}
	reports := make(chan report, 2*n)
	for v := 0; v < n; v++ {
		nodeID := topology.Node(v)
		raw, _ := json.Marshal(w.Books[v])
		path := fmt.Sprintf("%s/peers-%d.json", dir, v)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return launchErr("%v", err)
		}
		cmd := exec.Command(self,
			"-node", strconv.Itoa(v),
			"-m", strconv.Itoa(m),
			"-eta", strconv.Itoa(tmpl.Eta),
			"-listen", listen[v],
			"-peers", path,
			"-epoch", strconv.FormatInt(epoch.UnixNano(), 10),
			"-key-seed", strconv.FormatInt(keySeed, 10),
			"-seed", strconv.FormatInt(seed, 10),
			"-timeout", timeout.String(),
		)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return launchErr("%v", err)
		}
		if err := cmd.Start(); err != nil {
			return launchErr("start node %d: %v", v, err)
		}
		children[nodeID] = &child{cmd: cmd}
		wd.add(func() { cmd.Process.Kill() })
		go func() {
			sc := bufio.NewScanner(stdout)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), "RESULT "); ok {
					var r result
					if json.Unmarshal([]byte(rest), &r) == nil {
						reports <- report{node: nodeID, res: &r}
					}
				}
			}
			reports <- report{node: nodeID, err: cmd.Wait()}
		}()
	}

	// Execute the plan's crashes with SIGKILL — a real crash, not a
	// polite shutdown.
	for v, at := range crashes {
		go func() {
			select {
			case <-sigCtx.Done():
				return
			case <-time.After(time.Until(epoch.Add(at))):
			}
			c := children[v]
			c.killed.Store(true)
			c.cmd.Process.Kill()
			fmt.Printf("ihcd: crashed node %d (SIGKILL) at %s into the round\n", v, at)
		}()
	}

	// Wait for every survivor's RESULT. A child that exits on its own —
	// before printing one, or after it but before SIGTERM — fails the
	// launch at once.
	deadline := time.After(timeout + 5*time.Second)
	pending := make(map[topology.Node]bool)
	for v := range children {
		if _, dies := crashes[v]; !dies {
			pending[v] = true
		}
	}
	for len(pending) > 0 {
		select {
		case <-sigCtx.Done():
			fmt.Fprintln(os.Stderr, "ihcd: interrupted; killing cluster")
			return 3
		case <-deadline:
			return launchErr("timed out waiting for RESULT from nodes %v", keys(pending))
		case rp := <-reports:
			c := children[rp.node]
			if rp.res != nil {
				c.res = rp.res
				delete(pending, rp.node)
				continue
			}
			c.exited = true
			switch {
			case c.killed.Load():
			case c.res == nil:
				return launchErr("node %d exited before printing RESULT: %v", rp.node, rp.err)
			default:
				return launchErr("node %d exited before SIGTERM: %v", rp.node, rp.err)
			}
		}
	}

	// Verdict: every survivor must report the exact γ-copy
	// postcondition over all N sources — including the crashed node's
	// messages, which were injected before the crash and repaired
	// around it — and the delivery multiset of the discrete-event
	// engine on the same schedule.
	violations := 0
	totalRepaired, totalNaks, totalReconnects := 0, 0, 0
	graded := &cluster.Result{Epochs: 1, Nodes: make(map[topology.Node][]stream.EpochResult)}
	for v, c := range children {
		if _, dies := crashes[v]; dies {
			continue
		}
		r := c.res
		totalRepaired += r.Repaired
		totalNaks += r.Naks
		totalReconnects += r.Stats["reconnects"]
		if !r.OK {
			fmt.Fprintf(os.Stderr, "ihcd: node %d FAILED: ledger=%q exhausted=%d\n", v, r.LedgerErr, r.Exhausted)
			violations++
			continue
		}
		copies := make(map[topology.Node][]uint8, len(r.Copies))
		for s, chans := range r.Copies {
			for _, ch := range chans {
				copies[topology.Node(s)] = append(copies[topology.Node(s)], uint8(ch))
			}
		}
		graded.Nodes[v] = []stream.EpochResult{{Node: v, Completed: true, Copies: copies}}
	}
	if err := cluster.CompareWithSimnet(tmpl.IHC, tmpl.Eta, graded); err != nil {
		fmt.Fprintf(os.Stderr, "ihcd: %v\n", err)
		violations++
	} else if faultfree && violations == 0 {
		fmt.Printf("ihcd: wall-clock delivery multiset matches simnet (%d nodes × %d sources × γ=%d)\n", n, n-1, gamma)
	}

	// Graceful shutdown: SIGTERM every survivor and require exit 0.
	running := 0
	for v, c := range children {
		if c.exited {
			continue
		}
		running++
		if _, dies := crashes[v]; !dies {
			c.cmd.Process.Signal(syscall.SIGTERM)
		}
	}
	grace := time.After(5 * time.Second)
	for running > 0 {
		select {
		case rp := <-reports:
			if rp.res != nil {
				continue
			}
			running--
			c := children[rp.node]
			c.exited = true
			// A daemon whose round failed exits 2 by design: its
			// failure is counted above, not again here.
			_, dies := crashes[rp.node]
			if code := c.cmd.ProcessState.ExitCode(); !dies && code != 0 && (code != 2 || c.res.OK) {
				fmt.Fprintf(os.Stderr, "ihcd: node %d did not shut down cleanly: %v\n", rp.node, rp.err)
				violations++
			}
		case <-grace:
			for v, c := range children {
				if !c.exited {
					fmt.Fprintf(os.Stderr, "ihcd: node %d ignored SIGTERM\n", v)
					violations++
				}
			}
			running = 0
		}
	}

	mode := "chaos (partition {1,3}, crash node 6, drop/dup/corrupt/delay)"
	if faultfree {
		mode = "fault-free"
	}
	fmt.Printf("ihcd: %s round on Q%d complete: %d survivors verified γ=%d copies/source; %d repaired copies, %d NAKs, %d reconnects, %d violations\n",
		mode, m, n-len(crashes), gamma, totalRepaired, totalNaks, totalReconnects, violations)
	if violations > 0 {
		return 1
	}
	return 0
}

func keys(m map[topology.Node]bool) []int {
	out := make([]int, 0, len(m))
	for v := range m {
		out = append(out, int(v))
	}
	sort.Ints(out)
	return out
}
