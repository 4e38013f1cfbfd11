// Command faultcamp runs the adversarial fault campaign: for each
// requested topology it sweeps the tolerance frontier of several fault
// series (noisy/broken links, crash/Byzantine nodes; signed and
// unsigned voting), enumerating placements exhaustively where the space
// fits the budget and falling back to seeded uniform + targeted random
// search beyond it. Any bound-violating placement is shrunk to a
// 1-minimal counterexample and confirmed by both the combinatorial
// evaluator and the timed event-engine grader. `make bench-fault`
// writes BENCH_fault.json at the repository root.
//
// Usage:
//
//	faultcamp                          # sq4,q4,q6,h3,tq4,kt4x2 at full budget
//	faultcamp -quick                   # smaller budgets (seconds)
//	faultcamp -topo sq4,h3 -samples 20000
//	faultcamp -repair                  # also sweep the self-healing frontier
//	faultcamp -oracle                  # pre-flight: conformance.Check on each topology
//	faultcamp -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ihc/internal/campaign"
	"ihc/internal/conformance"
	"ihc/internal/core"
	"ihc/internal/fault"
	"ihc/internal/hamilton"
	"ihc/internal/par"
	"ihc/internal/profiling"
)

type report struct {
	Date             string               `json:"date"`
	GoVersion        string               `json:"go_version"`
	Workers          int                  `json:"workers"`
	Budget           int                  `json:"budget"`
	Samples          int                  `json:"samples"`
	Seed             int64                `json:"seed"`
	Frontiers        []*campaign.Frontier `json:"frontiers"`
	Repaired         []repairedFrontier   `json:"repaired_frontiers,omitempty"`
	TotalPlacements  int                  `json:"total_placements"`
	ElapsedSec       float64              `json:"elapsed_sec"`
	PlacementsPerSec float64              `json:"placements_per_sec"`
	Violations       []string             `json:"bound_violations,omitempty"`
	// Interrupted marks a report flushed after SIGINT/SIGTERM: the
	// frontiers present are complete, the rest never ran.
	Interrupted bool `json:"interrupted,omitempty"`
}

type repairedFrontier struct {
	Topo    string                     `json:"topo"`
	Gamma   int                        `json:"gamma"`
	MaxSafe int                        `json:"max_safe"`
	Reports []*campaign.RepairedReport `json:"reports"`
}

func main() {
	var (
		topos   = flag.String("topo", "sq4,q4,q6,h3,tq4,kt4x2", "comma-separated topologies (any registered family: sqM, qN, hM, tqN, ktKxN, tK1xK2...)")
		budget  = flag.Int("budget", 50000, "largest placement count enumerated exhaustively")
		samples = flag.Int("samples", 10000, "random placements per point beyond the budget")
		seed    = flag.Int64("seed", 1, "campaign seed (sampling and Byzantine coins)")
		quick   = flag.Bool("quick", false, "shrink budgets so the campaign runs in seconds")
		repairF = flag.Bool("repair", false, "also sweep the broken-link frontier with the self-healing layer on; fail unless it beats the static γ bound")
		oracleF = flag.Bool("oracle", false, "pre-flight each topology through the conformance battery (live theorem oracle included) before the campaign")
		out     = flag.String("o", "BENCH_fault.json", "output file (\"-\" for stdout)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := campaign.Search{Budget: *budget, Samples: *samples, CrossCheck: 997, Cancel: ctx.Done()}
	if *quick {
		if cfg.Budget > 2000 {
			cfg.Budget = 2000
		}
		if cfg.Samples > 500 {
			cfg.Samples = 500
		}
	}
	type job struct {
		base campaign.Point
		tMax int
	}
	var jobs []job
	type topoIHC struct {
		name string
		x    *core.IHC
	}
	var repairTargets []topoIHC
	for _, name := range strings.Split(*topos, ",") {
		g, err := hamilton.ParseNetwork(strings.TrimSpace(name))
		if err != nil {
			fail(err)
		}
		if *oracleF {
			// Pre-flight: a topology whose fault-free run violates the
			// paper's invariants would make every frontier below
			// meaningless, so run its registry instance through the
			// conformance battery before spending the campaign budget.
			in, err := hamilton.Parse(g.Name())
			if err != nil {
				fail(err)
			}
			if err := conformance.Check(in); err != nil {
				fail(fmt.Errorf("conformance pre-flight on %s: %w", g.Name(), err))
			}
			fmt.Printf("%-4s conformance pre-flight passed (fault-free oracle, γ=%d copies, zero contention)\n", g.Name(), in.Gamma)
		}
		cycles, err := hamilton.Decompose(g)
		if err != nil {
			fail(err)
		}
		x, err := core.New(g, cycles)
		if err != nil {
			fail(err)
		}
		gamma := x.Gamma()
		repairTargets = append(repairTargets, topoIHC{g.Name(), x})
		for _, s := range []struct {
			signed bool
			domain campaign.Domain
			kind   fault.Kind
			tMax   int
		}{
			{false, campaign.DomainLinks, fault.Corrupt, (gamma + 1) / 2}, // bound ⌈γ/2⌉−1, break at γ/2
			{true, campaign.DomainLinks, fault.Corrupt, gamma},            // bound γ−1, break at γ
			{false, campaign.DomainLinks, fault.Crash, gamma},             // lost copies can't outvote; break at γ
			{false, campaign.DomainNodes, fault.Crash, 3},
			{false, campaign.DomainNodes, fault.Byzantine, 3},
		} {
			jobs = append(jobs, job{campaign.Point{
				X: x, Signed: s.signed, Domain: s.domain, Kind: s.kind, Seed: *seed,
			}, s.tMax})
		}
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fail(err)
	}

	start := time.Now()
	frontiers, errs := par.Map(len(jobs), false, ctx.Done(), func(j int) (*campaign.Frontier, error) {
		return campaign.RunFrontier(jobs[j].base, cfg, jobs[j].tMax)
	})
	stopProf()
	interrupted := ctx.Err() != nil
	for _, err := range errs {
		if err != nil && !errors.Is(err, campaign.ErrCanceled) && !errors.Is(err, par.ErrCanceled) {
			fail(err)
		}
	}
	if interrupted {
		// Keep the frontiers that finished; flush them below so a long
		// campaign interrupted near the end still leaves its data.
		done := frontiers[:0]
		for _, f := range frontiers {
			if f != nil {
				done = append(done, f)
			}
		}
		frontiers = done
	}

	rep := report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Workers:   runtime.GOMAXPROCS(0), Budget: cfg.Budget, Samples: cfg.Samples, Seed: *seed,
		Frontiers:   frontiers,
		ElapsedSec:  time.Since(start).Seconds(),
		Interrupted: interrupted,
	}
	if *repairF && !interrupted {
		// Each repaired placement costs a full engine simulation plus a
		// baseline run, so the repaired sweep gets its own small budget.
		rcfg := campaign.Search{Budget: 60, Samples: 40}
		if *quick {
			rcfg = campaign.Search{Budget: 30, Samples: 15}
		}
		rcfg.Cancel = ctx.Done()
		for _, tgt := range repairTargets {
			gamma := tgt.x.Gamma()
			reports, maxSafe, err := campaign.RepairedFrontier(tgt.x, gamma+1, rcfg, *seed)
			if errors.Is(err, campaign.ErrCanceled) {
				rep.Interrupted = true
				break
			}
			if err != nil {
				fail(err)
			}
			rep.Repaired = append(rep.Repaired, repairedFrontier{
				Topo: tgt.name, Gamma: gamma, MaxSafe: maxSafe, Reports: reports,
			})
			for _, r := range reports {
				rep.TotalPlacements += r.Placements
			}
			if maxSafe <= gamma {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s repaired max_safe=%d does not beat static bound γ=%d", tgt.name, maxSafe, gamma))
			}
		}
		rep.ElapsedSec = time.Since(start).Seconds()
	}
	for _, f := range frontiers {
		for _, r := range f.Reports {
			rep.TotalPlacements += r.Placements
		}
		// A violation at or under the paper's bound would falsify the
		// reproduction; links are where the bounds are exact, so only
		// link-domain series count (node-domain frontiers measure how far
		// adversarial placement undercuts the bound — the campaign's
		// finding, not a failure).
		if f.Domain == campaign.DomainLinks.String() && f.MinBroken > 0 && f.MinBroken <= f.Bound {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("%s %s/%s signed=%v broken at t=%d <= bound %d", f.Topo, f.Domain, f.Kind, f.Signed, f.MinBroken, f.Bound))
		}
	}
	if rep.ElapsedSec > 0 {
		rep.PlacementsPerSec = float64(rep.TotalPlacements) / rep.ElapsedSec
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}

	for _, f := range frontiers {
		broken := "none"
		if f.MinBroken > 0 {
			broken = strconv.Itoa(f.MinBroken)
		}
		fmt.Printf("%-4s %-5s %-9s signed=%-5v bound=%d max_safe=%d min_broken=%s\n",
			f.Topo, f.Domain, f.Kind, f.Signed, f.Bound, f.MaxSafe, broken)
	}
	for _, rf := range rep.Repaired {
		fmt.Printf("%-4s repaired broken-link frontier: γ=%d max_safe=%d (static bound beaten: %v)\n",
			rf.Topo, rf.Gamma, rf.MaxSafe, rf.MaxSafe > rf.Gamma)
	}
	fmt.Printf("faultcamp: %d placements in %.1fs (%.3g placements/s) on %d worker(s) -> %s\n",
		rep.TotalPlacements, rep.ElapsedSec, rep.PlacementsPerSec, rep.Workers, *out)
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "BOUND VIOLATION:", v)
		}
		os.Exit(1)
	}
	if interrupted {
		fmt.Fprintf(os.Stderr, "faultcamp: interrupted; partial report (%d of %d frontiers) flushed to %s\n",
			len(frontiers), len(jobs), *out)
		os.Exit(3)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultcamp:", err)
	os.Exit(1)
}
