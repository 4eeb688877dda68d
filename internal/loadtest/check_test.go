package loadtest

import (
	"fmt"
	"strings"
	"testing"

	"perfpred/internal/gateway"
	"perfpred/internal/obs"
)

// healthyFacts is an unbroken fact set for n replicas — a bare daemon
// with the cache epilogue when n == 1, a gateway tier otherwise (kill
// adds a completed kill/restart cycle). Every invariant holds on it
// with a little slack, so each mutation below breaks exactly the one
// invariant it targets.
func healthyFacts(n int, kill bool) *runFacts {
	f := &runFacts{
		cfg:    Config{CacheEntries: 16, ReplicaKill: kill},
		models: []string{"lre", "nns"},
		golden: map[string][]float64{"lre": {1, 2, 3, 4}, "nns": {5, 6, 7, 8}},
	}
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", 9000+i) }
	// One primary-routed hot 200, one 429, one abandoned request, one
	// malformed payload and one acknowledged reload.
	f.outs = []outcome{
		{ev: Event{Seq: 0, Model: "lre", RowIdxs: []int{0}, Single: true}, status: 200, preds: []float64{1},
			replica: addr(0), route: gateway.RoutePrimary},
		{ev: Event{Seq: 1, Model: "nns", RowIdxs: []int{1}, Single: true}, status: 429},
		{ev: Event{Seq: 2, Model: "nns", RowIdxs: []int{2}, Timeout: 1}, timedOut: true, err: "deadline"},
		{ev: Event{Seq: 3, Model: "lre", RowIdxs: []int{3}, Payload: PayloadBadWidth}, status: 400},
		{ev: Event{Seq: 4, Reload: true}, status: 200},
	}
	shed := int64(1)
	reloads := 1
	if n == 1 {
		f.epi = &EpilogueStats{Probes: 16, Observed429s: 1, ReloadAttempts: 2, ReloadsOK: 1}
		shed++
		reloads++
	}
	for i := 0; i < n; i++ {
		sr := &obs.ServeReport{
			Version:    obs.ServeReportVersion,
			Addr:       addr(i),
			Generation: int64(1 + reloads),
			Requests:   10,
			Cache:      obs.CacheStats{Lookups: 2, Hits: 1, Misses: 1},
		}
		if i == 0 {
			sr.Predictions, sr.Shed = 1, shed
		}
		f.replicas = append(f.replicas, replicaFacts{
			serve:     sr,
			catalog:   []catalogSample{{gen: 1, models: f.models}, {gen: int64(1 + reloads), models: f.models}},
			reloadsOK: reloads,
		})
	}
	if n == 1 {
		return f
	}
	f.cfg.GatewayReplicas = n
	gw := &obs.GatewayReport{Version: obs.GatewayReportVersion}
	for i := 0; i < n; i++ {
		gw.Replicas = append(gw.Replicas, obs.ReplicaReport{Addr: addr(i)})
	}
	if kill {
		f.kills, f.restarts = 1, 1
		gw.Ejects, gw.Readmits = 1, 1
		gw.Replicas[n-1].Ejects, gw.Replicas[n-1].Readmits = 1, 1
		// A fan-out failing while the victim is down is allowed, and the
		// victim's rendezvous fallback may serve its keys meanwhile.
		f.outs = append(f.outs,
			outcome{ev: Event{Seq: 5, Reload: true}, status: 500, err: "replica down"},
			outcome{ev: Event{Seq: 6, Model: "lre", RowIdxs: []int{0}, Single: true}, status: 200,
				preds: []float64{1}, replica: addr(1), route: gateway.RoutePrimary})
	}
	f.gateway = gw
	return f
}

// TestCheckFiresEveryInvariant feeds the pure checker synthetic fact
// sets that each break exactly one invariant and asserts that its
// violation — and only it — fires, while the unbroken sets pass. The
// topology-agnostic invariants run on a bare daemon (one replica, no
// gateway) and on three replicas behind a gateway; the gateway-only
// ones run on the latter.
func TestCheckFiresEveryInvariant(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int // 0 = both topologies
		kill    bool
		breakIt func(f *runFacts)
		want    string // substring of the expected violation
		count   int    // violations expected (default 1)
	}{
		{name: "reload failed without faults", breakIt: func(f *runFacts) {
			f.outs = append(f.outs, outcome{ev: Event{Seq: 9, Reload: true}, status: 500, err: "boom"})
		}, want: "reload 9 failed without faults armed"},
		{name: "reload without terminal state", breakIt: func(f *runFacts) {
			f.outs = append(f.outs, outcome{ev: Event{Seq: 9, Reload: true}, err: "reset"})
		}, want: "reload 9: unexpected terminal state"},
		{name: "request without terminal response", breakIt: func(f *runFacts) {
			f.outs[1].status, f.outs[1].err = 0, "reset"
		}, want: "request 1 (nns ok): no terminal response"},
		{name: "malformed payload wrong code", breakIt: func(f *runFacts) {
			f.outs[3].status = 404
		}, want: "bad_width payload answered 404, want exactly 400"},
		{name: "500 without faults", breakIt: func(f *runFacts) {
			f.outs[1].status = 500
			f.replicas[0].serve.Shed--
		}, want: "request 1: 500 without faults armed"},
		{name: "unexpected status for ok payload", breakIt: func(f *runFacts) {
			f.outs[1].status = 418
			f.replicas[0].serve.Shed--
		}, want: "request 1: unexpected status 418 for ok payload"},
		{name: "200 with wrong prediction count", breakIt: func(f *runFacts) {
			f.outs[0].preds = []float64{1, 1}
		}, want: "request 0: 200 carried 2 predictions for 1 rows"},
		{name: "bit mismatch", breakIt: func(f *runFacts) {
			f.outs[0].preds = []float64{1.5}
		}, want: "request 0: model lre row 0 predicted 1.5, offline golden 1"},
		{name: "generation moved backwards", breakIt: func(f *runFacts) {
			c := f.replicas[len(f.replicas)-1].catalog
			c[0], c[1] = c[1], c[0]
		}, want: "generation moved backwards"},
		{name: "torn catalog", breakIt: func(f *runFacts) {
			f.replicas[0].catalog[1].models = []string{"lre"}
		}, want: "served [lre], want [lre nns]"},
		{name: "epilogue violation", breakIt: func(f *runFacts) {
			f.epiViolations = []string{"cache hit crossed the generation boundary: hot row 3"}
		}, want: "cache hit crossed the generation boundary"},
		{name: "serve report invalid", breakIt: func(f *runFacts) {
			f.replicas[len(f.replicas)-1].serve.Version = 0
		}, want: "final serve report invalid"},
		{name: "generation disagrees with reload census", breakIt: func(f *runFacts) {
			f.replicas[len(f.replicas)-1].reloadsOK--
		}, want: "acknowledged reloads)"},
		{name: "cache hits plus misses differ from lookups", breakIt: func(f *runFacts) {
			f.replicas[len(f.replicas)-1].serve.Cache.Lookups++
		}, want: "cache hits(1)+misses(1) != lookups(3)"},
		{name: "cache coalesced exceeds misses", breakIt: func(f *runFacts) {
			f.replicas[len(f.replicas)-1].serve.Cache.Coalesced = 2
		}, want: "cache coalesced 2 exceeds misses 1"},
		{name: "disabled cache moved", breakIt: func(f *runFacts) {
			f.cfg.CacheEntries = 0
			for _, r := range f.replicas {
				r.serve.Cache = obs.CacheStats{}
			}
			f.replicas[len(f.replicas)-1].serve.Cache.Evictions = 1
		}, want: "cache disabled but its counters moved"},
		{name: "replica faults without faults armed", breakIt: func(f *runFacts) {
			f.replicas[len(f.replicas)-1].serve.FaultsInjected = 1
		}, want: "faults disabled but 1 replica faults fired"},
		{name: "shed without telling the client", breakIt: func(f *runFacts) {
			f.outs = append(f.outs, outcome{ev: Event{Seq: 9, Model: "lre", RowIdxs: []int{0}}, status: 429})
		}, want: "shed without telling the client"},
		{name: "shed beyond the slack", breakIt: func(f *runFacts) {
			f.replicas[len(f.replicas)-1].serve.Shed += 2
		}, want: "requests dropped without a 429"},
		{name: "fewer rows served than returned", breakIt: func(f *runFacts) {
			f.outs = append(f.outs, outcome{ev: Event{Seq: 9, Model: "nns", RowIdxs: []int{0, 1, 2, 3}},
				status: 200, preds: []float64{5, 6, 7, 8}})
		}, want: "rows in 200s"},
		{name: "requests below the lower bound", n: 1, breakIt: func(f *runFacts) {
			f.replicas[0].serve.Requests = 1
		}, want: "requests counter 1 < 2 requests that reached the batcher"},
		{name: "requests below the lower bound", n: 3, breakIt: func(f *runFacts) {
			for _, r := range f.replicas {
				r.serve.Requests = 0
			}
		}, want: "replica requests 0 < 1 client-observed 200s"},
		{name: "armed cache never looked up", breakIt: func(f *runFacts) {
			for _, r := range f.replicas {
				r.serve.Cache = obs.CacheStats{}
			}
		}, want: "but no lookup ever reached them"},
		{name: "armed cache never hit", breakIt: func(f *runFacts) {
			for _, r := range f.replicas {
				r.serve.Cache = obs.CacheStats{Lookups: 2, Misses: 2}
			}
		}, want: "recorded zero cache hits"},
		{name: "gateway report invalid", n: 3, breakIt: func(f *runFacts) {
			f.gateway.Version = 0
		}, want: "final gateway report invalid"},
		{name: "gateway faults without faults armed", n: 3, breakIt: func(f *runFacts) {
			f.gateway.FaultsInjected = 1
		}, want: "faults disabled but 1 gateway faults fired"},
		{name: "kill choreography incomplete", n: 3, kill: true, breakIt: func(f *runFacts) {
			f.restarts = 0
		}, want: "kill choreography incomplete: 1 kills, 0 restarts"},
		{name: "killed replica never ejected", n: 3, kill: true, breakIt: func(f *runFacts) {
			f.gateway.Ejects, f.gateway.Readmits = 0, 0
			f.gateway.Replicas[2].Ejects, f.gateway.Replicas[2].Readmits = 0, 0
		}, want: "gateway never ejected it", count: 2}, // no eject implies no readmit
		{name: "restarted replica never readmitted", n: 3, kill: true, breakIt: func(f *runFacts) {
			f.gateway.Readmits, f.gateway.Replicas[2].Readmits = 0, 0
		}, want: "gateway never readmitted it"},
		{name: "ejection without a kill", n: 3, breakIt: func(f *runFacts) {
			f.gateway.Ejects, f.gateway.Replicas[1].Ejects = 1, 1
		}, want: "no replica was killed but the gateway ejected 1 time(s)"},
		{name: "affinity broken", n: 3, breakIt: func(f *runFacts) {
			second := f.outs[0]
			second.ev.Seq, second.replica = 9, f.replicas[1].serve.Addr
			f.outs = append(f.outs, second)
		}, want: "affinity broken: key lre/0 landed on 2 replicas"},
		{name: "affinity broken across a kill", n: 3, kill: true, breakIt: func(f *runFacts) {
			third := f.outs[0]
			third.ev.Seq, third.replica = 9, f.replicas[2].serve.Addr
			f.outs = append(f.outs, third)
		}, want: "landed on 3 replicas"},
		{name: "affinity vacuous", n: 3, breakIt: func(f *runFacts) {
			f.outs[0].route = gateway.RouteHedge
		}, want: "affinity invariant is vacuous"},
	} {
		for _, n := range []int{1, 3} {
			if tc.n != 0 && tc.n != n {
				continue
			}
			t.Run(fmt.Sprintf("%s/replicas=%d", tc.name, n), func(t *testing.T) {
				f := healthyFacts(n, tc.kill)
				tc.breakIt(f)
				rep := &Report{}
				check(rep, f)
				want := max(tc.count, 1)
				if len(rep.Violations) != want || !strings.Contains(strings.Join(rep.Violations, "\n"), tc.want) {
					t.Fatalf("want %d violation(s) naming %q, got %q", want, tc.want, rep.Violations)
				}
			})
		}
	}
	for _, tc := range []struct {
		n    int
		kill bool
	}{{1, false}, {3, false}, {3, true}} {
		rep := &Report{}
		check(rep, healthyFacts(tc.n, tc.kill))
		if !rep.OK() {
			t.Errorf("unbroken facts (%d replicas, kill=%v) raised %q", tc.n, tc.kill, rep.Violations)
		}
	}
}
