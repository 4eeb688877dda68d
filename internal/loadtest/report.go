package loadtest

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"time"

	"perfpred/internal/faultinject"
	"perfpred/internal/gateway"
	"perfpred/internal/obs"
)

// ReportVersion is the chaos report schema version. Version 2 replaced
// the bare daemon's "serve" report with a one-entry "serve_replicas".
const ReportVersion = 2

// ReloadStats summarizes the run's reload events.
type ReloadStats struct {
	Attempted int `json:"attempted"`
	OK        int `json:"ok"`
	Failed    int `json:"failed"`
}

// Report is the invariant report of one chaos/soak run — everything
// needed to judge the run and to reproduce it (the seed and schedule
// hash) from the artifact alone.
type Report struct {
	Version      int     `json:"version"`
	Seed         int64   `json:"seed"`
	Faults       bool    `json:"faults"`
	CacheEntries int     `json:"cache_entries"`
	ScheduleHash uint64  `json:"schedule_hash"`
	Events       int     `json:"events"`
	Requests     int     `json:"requests"`
	DurationSecs float64 `json:"duration_seconds"`

	// StatusCounts counts terminal HTTP statuses of predict requests,
	// keyed by code ("200", "429", ...).
	StatusCounts map[string]int `json:"status_counts"`
	// ClientTimeouts counts requests abandoned by their own scheduled
	// client-side deadline (an allowed terminal outcome).
	ClientTimeouts int `json:"client_timeouts"`

	Reloads ReloadStats `json:"reloads"`

	// BitCompared / BitMismatches count golden comparisons: every
	// prediction in every 200 is compared for float64 equality against
	// offline scoring of the same artifact. Any mismatch is a violation.
	BitCompared   int `json:"bit_compared"`
	BitMismatches int `json:"bit_mismatches"`

	// GenerationFirst/Last bracket the registry generations the catalog
	// poller observed; GenerationRegressions counts observations where
	// the generation moved backwards (must be 0).
	GenerationFirst       int64 `json:"generation_first"`
	GenerationLast        int64 `json:"generation_last"`
	GenerationRegressions int   `json:"generation_regressions"`

	// FaultStats is the injector's per-point call/fire census (empty
	// when faults are disabled).
	FaultStats map[string]faultinject.PointStats `json:"fault_stats,omitempty"`

	// ServeReplicas are the per-replica final serve reports, in
	// configuration order; a bare-daemon run has exactly one.
	ServeReplicas []*obs.ServeReport `json:"serve_replicas"`

	// Gateway fields (GatewayReplicas ≥ 2 in the run config).
	// GatewayReplicas is the replica count behind the front tier.
	GatewayReplicas int `json:"gateway_replicas,omitempty"`
	// ReplicaKills / ReplicaRestarts count the kill choreography's
	// completed crashes and rebinds.
	ReplicaKills    int `json:"replica_kills,omitempty"`
	ReplicaRestarts int `json:"replica_restarts,omitempty"`
	// Gateway is the front tier's final report.
	Gateway *obs.GatewayReport `json:"gateway,omitempty"`
	// AffinityKeys counts distinct (model, row) keys observed on
	// primary-routed single-row 200s; AffinityMaxSpread is the largest
	// number of distinct replicas any one key landed on (1 = perfect
	// cache affinity; 2 is allowed only across a kill/restart).
	AffinityKeys      int `json:"affinity_keys,omitempty"`
	AffinityMaxSpread int `json:"affinity_max_spread,omitempty"`

	// Epilogue records the generation-boundary epilogue of a cache-armed
	// bare-daemon run (nil otherwise).
	Epilogue *EpilogueStats `json:"generation_epilogue,omitempty"`

	// Violations lists every invariant breach, capped at maxViolations
	// entries. An empty list is a passing run.
	Violations []string `json:"violations"`
}

// OK reports whether the run held every invariant.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// maxViolations bounds how many violation strings a report carries; a
// systemic breach would otherwise produce one line per request.
const maxViolations = 25

type violations struct {
	list    []string
	dropped int
}

func (v *violations) addf(format string, args ...any) {
	if len(v.list) >= maxViolations {
		v.dropped++
		return
	}
	v.list = append(v.list, fmt.Sprintf(format, args...))
}

// report snapshots the drained rig into plain facts and checks them.
func (h *harness) report(inj *faultinject.Injector, elapsed time.Duration) *Report {
	rg := h.rig
	rep := &Report{
		Version:         ReportVersion,
		Seed:            h.cfg.Seed,
		Faults:          h.cfg.Faults,
		CacheEntries:    h.cfg.CacheEntries,
		ScheduleHash:    h.sched.Hash(),
		Events:          len(h.sched.Events),
		DurationSecs:    elapsed.Seconds(),
		GatewayReplicas: h.cfg.GatewayReplicas,
	}
	if inj != nil {
		rep.FaultStats = inj.Stats()
	}
	f := &runFacts{
		cfg:           h.cfg,
		models:        h.fx.models,
		golden:        h.fx.golden,
		outs:          h.outs,
		epi:           h.epi,
		epiViolations: h.epiViolations,
	}
	if rg.gw != nil {
		f.gateway = rg.gw.Report()
	}
	h.mu.Lock()
	rg.mu.Lock()
	for i, sr := range rg.reps {
		f.replicas = append(f.replicas, replicaFacts{
			serve:     sr.srv.Report(),
			catalog:   h.catalog[i],
			reloadsOK: rg.reloadOK[i],
		})
	}
	f.kills, f.restarts = rg.kills, rg.restarts
	rg.mu.Unlock()
	h.mu.Unlock()
	check(rep, f)
	return rep
}

// runFacts is everything a run collected, as plain data. check judges
// it without touching the network, the servers or the clock, so every
// invariant can be exercised on a synthetic fact set.
type runFacts struct {
	cfg    Config
	models []string // the sorted model set every catalog must serve
	golden map[string][]float64
	outs   []outcome
	// replicas holds one entry per daemon in configuration order; a
	// bare-daemon run has exactly one.
	replicas []replicaFacts
	// gateway is the front tier's final report; nil for a bare daemon.
	gateway         *obs.GatewayReport
	kills, restarts int
	epi             *EpilogueStats
	epiViolations   []string
}

// replicaFacts is what one replica left behind.
type replicaFacts struct {
	serve   *obs.ServeReport
	catalog []catalogSample
	// reloadsOK counts every reload this replica acknowledged: direct
	// Server.Reload, admin POST, gateway fan-out result or epilogue.
	reloadsOK int
}

// check folds the facts into rep and records every invariant breach in
// rep.Violations. The serve, shed, cache and fault invariants are
// checked once over the replica list; a bare daemon is simply the
// one-replica case with no gateway, where the gateway terms (its shed,
// hedges and retries) are zero. Only the requests lower bound and the
// kill/affinity checks depend on the topology.
func check(rep *Report, f *runFacts) {
	var v violations
	cfg := f.cfg
	gw := f.gateway
	rep.StatusCounts = map[string]int{}
	rep.Epilogue = f.epi

	rows200, admitted := 0, 0
	for i := range f.outs {
		out := &f.outs[i]
		if out.ev.Reload {
			checkReload(rep, &v, cfg, out)
			continue
		}
		rep.Requests++
		checkPredict(rep, &v, cfg, f.golden, out, &rows200, &admitted)
	}

	var shed, served, requests, faults, lookups, hits int64
	for i, r := range f.replicas {
		sr := r.serve
		rep.ServeReplicas = append(rep.ServeReplicas, sr)
		if err := sr.Validate(); err != nil {
			v.addf("replica %d final serve report invalid: %v", i, err)
		}
		checkCatalog(rep, &v, i, r.catalog, f.models)
		// A replica's generation is 1 (initial load) plus the reloads it
		// acknowledged itself — a killed replica simply misses the
		// reloads broadcast while it was down.
		if want := 1 + int64(r.reloadsOK); sr.Generation != want {
			v.addf("replica %d (%s) generation %d, want %d (1 + its %d acknowledged reloads)",
				i, sr.Addr, sr.Generation, want, r.reloadsOK)
		}
		// Post-drain, every cache lookup has resolved as exactly one hit
		// or miss and coalesced waits are a sub-count of misses. With the
		// cache off, its counters must never move at all.
		cs := sr.Cache
		if cfg.CacheEntries > 0 {
			if cs.Hits+cs.Misses != cs.Lookups {
				v.addf("replica %d cache hits(%d)+misses(%d) != lookups(%d)", i, cs.Hits, cs.Misses, cs.Lookups)
			}
			if cs.Coalesced > cs.Misses {
				v.addf("replica %d cache coalesced %d exceeds misses %d", i, cs.Coalesced, cs.Misses)
			}
		} else if cs != (obs.CacheStats{}) {
			v.addf("replica %d cache disabled but its counters moved: %+v", i, cs)
		}
		shed += sr.Shed
		served += sr.Predictions + cs.Hits + cs.Coalesced
		requests += sr.Requests
		faults += sr.FaultsInjected
		lookups += cs.Lookups
		hits += cs.Hits
	}
	for _, s := range f.epiViolations {
		v.addf("%s", s)
	}
	if !cfg.Faults && faults != 0 {
		v.addf("faults disabled but %d replica faults fired", faults)
	}

	// Shed reconciliation across the tier. Every wire-observed 429 was
	// counted by a replica's batcher or the gateway's in-flight cap; the
	// converse allows slack for abandoned clients (the 429 was sent but
	// never read) and losing hedge/retry attempts (their 429 lost the
	// first-response race). Epilogue probes observe their own 429s.
	observed := int64(rep.StatusCounts["429"])
	if f.epi != nil {
		observed += int64(f.epi.Observed429s)
	}
	var gwShed, hedges, retries int64
	if gw != nil {
		gwShed, hedges, retries = gw.Shed, gw.Hedges, gw.Retries
	}
	shed += gwShed
	if shed < observed {
		v.addf("tier shed %d but %d requests saw 429 — shed without telling the client", shed, observed)
	} else if slack := observed + int64(rep.ClientTimeouts) + hedges + retries; shed > slack {
		v.addf("tier shed %d exceeds %d observed 429s + %d client timeouts + %d hedges + %d retries — requests dropped without a 429",
			shed, observed, rep.ClientTimeouts, hedges, retries)
	}
	// Every row in a client-observed 200 was scored by a batcher,
	// served from a cache, or rode a leader's scoring of the same row
	// (coalesced); hedges and retries only add extra scoring.
	if served < int64(rows200) {
		v.addf("replicas served %d rows (predictions + cache hits + coalesced) but clients saw %d rows in 200s",
			served, rows200)
	}
	// A bare daemon counts every request that reached its batcher; a
	// gateway's extra statuses (its own 429s, 502s) never reached a
	// replica, so behind it only client-observed 200s bound the count.
	if gw == nil {
		if requests < int64(admitted) {
			v.addf("requests counter %d < %d requests that reached the batcher", requests, admitted)
		}
	} else if requests < int64(rep.StatusCounts["200"]) {
		v.addf("replica requests %d < %d client-observed 200s", requests, rep.StatusCounts["200"])
	}
	// A duplicate-heavy schedule against armed caches must actually hit.
	if cfg.CacheEntries > 0 {
		if lookups == 0 {
			v.addf("caches armed (%d entries each) but no lookup ever reached them", cfg.CacheEntries)
		} else if hits == 0 {
			v.addf("duplicate-heavy schedule recorded zero cache hits across %d lookups", lookups)
		}
	}

	if gw != nil {
		rep.Gateway = gw
		rep.ReplicaKills, rep.ReplicaRestarts = f.kills, f.restarts
		if err := gw.Validate(); err != nil {
			v.addf("final gateway report invalid: %v", err)
		}
		if !cfg.Faults && gw.FaultsInjected != 0 {
			v.addf("faults disabled but %d gateway faults fired", gw.FaultsInjected)
		}
		checkKill(rep, &v, cfg, gw)
		checkAffinity(rep, &v, cfg, f.outs)
	}

	if v.dropped > 0 {
		v.list = append(v.list, fmt.Sprintf("... and %d more violations", v.dropped))
	}
	rep.Violations = v.list
	if rep.Violations == nil {
		rep.Violations = []string{}
	}
}

// checkCatalog judges one replica's catalog observations: its
// generation only moves forward, and it never serves a partial model
// set — a torn catalog (some models missing mid-reload) is a violation
// no matter when it is observed. GenerationFirst/Last bracket the
// generations seen across all replicas.
func checkCatalog(rep *Report, v *violations, i int, samples []catalogSample, models []string) {
	for j, s := range samples {
		if j > 0 && s.gen < samples[j-1].gen {
			rep.GenerationRegressions++
			v.addf("replica %d generation moved backwards: %d then %d", i, samples[j-1].gen, s.gen)
		}
		if !slices.Equal(s.models, models) {
			v.addf("replica %d catalog at generation %d served %v, want %v", i, s.gen, s.models, models)
		}
	}
	if len(samples) == 0 {
		return
	}
	// Generations start at 1, so 0 means no replica was observed yet.
	if first := samples[0].gen; rep.GenerationFirst == 0 || first < rep.GenerationFirst {
		rep.GenerationFirst = first
	}
	if last := samples[len(samples)-1].gen; last > rep.GenerationLast {
		rep.GenerationLast = last
	}
}

// checkReload folds one reload outcome.
func checkReload(rep *Report, v *violations, cfg Config, out *outcome) {
	rep.Reloads.Attempted++
	switch {
	case out.status == 200:
		rep.Reloads.OK++
	case out.status == 500:
		rep.Reloads.Failed++
		// Kill runs legitimately fail fan-outs while the killed replica
		// is down; otherwise a failed reload needs armed faults.
		if !cfg.Faults && !cfg.ReplicaKill {
			v.addf("reload %d failed without faults armed: %s", out.ev.Seq, out.err)
		}
	default:
		v.addf("reload %d: unexpected terminal state status=%d err=%q", out.ev.Seq, out.status, out.err)
	}
}

// checkPredict folds one predict outcome, verifying its terminal class
// against the payload contract and bit-comparing 200s to the goldens.
func checkPredict(rep *Report, v *violations, cfg Config, golden map[string][]float64, out *outcome, rows200, admitted *int) {
	ev := out.ev
	if out.status == 0 {
		if out.timedOut && ev.Timeout > 0 {
			rep.ClientTimeouts++
			return
		}
		v.addf("request %d (%s %s): no terminal response: %s", ev.Seq, ev.Model, ev.Payload, out.err)
		return
	}
	rep.StatusCounts[strconv.Itoa(out.status)]++
	switch out.status {
	case 200, 429, 503, 504, 500:
		*admitted++
	}

	want, exact := expectedStatus(ev.Payload)
	if exact {
		if out.status != want {
			v.addf("request %d: %s payload answered %d, want exactly %d", ev.Seq, ev.Payload, out.status, want)
		}
		return
	}
	switch out.status {
	case 200:
	case 429, 503, 504:
		return
	case 500:
		if !cfg.Faults {
			v.addf("request %d: 500 without faults armed", ev.Seq)
		}
		return
	default:
		v.addf("request %d: unexpected status %d for ok payload", ev.Seq, out.status)
		return
	}

	// 200: every prediction must bit-match offline scoring.
	gold := golden[ev.Model]
	if len(out.preds) != len(ev.RowIdxs) {
		v.addf("request %d: 200 carried %d predictions for %d rows", ev.Seq, len(out.preds), len(ev.RowIdxs))
		return
	}
	*rows200 += len(out.preds)
	for j, idx := range ev.RowIdxs {
		rep.BitCompared++
		if out.preds[j] != gold[idx] {
			rep.BitMismatches++
			v.addf("request %d: model %s row %d predicted %v, offline golden %v",
				ev.Seq, ev.Model, idx, out.preds[j], gold[idx])
		}
	}
}

// expectedStatus returns the exact status a malformed payload must map
// to; exact=false means the payload is well-formed and load-dependent
// outcomes apply.
func expectedStatus(p PayloadKind) (status int, exact bool) {
	switch p {
	case PayloadBadWidth, PayloadBadType, PayloadUnknownCategory:
		return 400, true
	case PayloadUnknownModel:
		return 404, true
	}
	return 0, false
}

// checkKill judges the kill choreography: the crash and rebind must
// both have happened, and the gateway must have seen them (eject on the
// crash, readmit after the rebind). Without a kill the clean topology
// must never eject anyone (chaos plans deliberately exclude probe
// faults).
func checkKill(rep *Report, v *violations, cfg Config, gw *obs.GatewayReport) {
	if !cfg.ReplicaKill {
		if gw.Ejects != 0 {
			v.addf("no replica was killed but the gateway ejected %d time(s)", gw.Ejects)
		}
		return
	}
	if rep.ReplicaKills != 1 || rep.ReplicaRestarts != 1 {
		v.addf("kill choreography incomplete: %d kills, %d restarts (want 1 and 1)",
			rep.ReplicaKills, rep.ReplicaRestarts)
	}
	if gw.Ejects == 0 {
		v.addf("replica was killed but the gateway never ejected it")
	}
	if gw.Readmits == 0 {
		v.addf("replica was restarted but the gateway never readmitted it")
	}
}

// checkAffinity judges cache affinity: all primary-routed single-row
// 200s of one (model, row) key must come from one replica — two across
// a kill/restart (the key's rendezvous fallback). Hedge and retry
// winners are excluded: they land elsewhere by design.
func checkAffinity(rep *Report, v *violations, cfg Config, outs []outcome) {
	spread := map[string]map[string]bool{}
	for i := range outs {
		out := &outs[i]
		ev := out.ev
		if ev.Reload || out.status != 200 || !ev.Single || ev.Payload != PayloadOK {
			continue
		}
		if out.route != gateway.RoutePrimary || out.replica == "" {
			continue
		}
		key := fmt.Sprintf("%s/%d", ev.Model, ev.RowIdxs[0])
		if spread[key] == nil {
			spread[key] = map[string]bool{}
		}
		spread[key][out.replica] = true
	}
	allowed := 1
	if cfg.ReplicaKill {
		allowed = 2
	}
	rep.AffinityKeys = len(spread)
	for key, reps := range spread {
		if n := len(reps); n > rep.AffinityMaxSpread {
			rep.AffinityMaxSpread = n
		}
		if len(reps) > allowed {
			names := make([]string, 0, len(reps))
			for r := range reps {
				names = append(names, r)
			}
			sort.Strings(names)
			v.addf("affinity broken: key %s landed on %d replicas %v (allowed %d)", key, len(reps), names, allowed)
		}
	}
	if rep.AffinityKeys == 0 {
		v.addf("no primary-routed single-row 200s observed — affinity invariant is vacuous")
	}
}
