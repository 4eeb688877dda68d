package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"time"

	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/serve"
	"perfpred/internal/stat"
)

// serveStage is what the serve stage reports to the run.
type serveStage struct {
	setupS   []float64
	step     stepResult // the measured step of an untraced run
	scrapeMS []float64  // one scrape of replica 0 at the end of each step
	// retainedMB is the heap left live after the measured step, with the
	// rig, its registries and its filled caches still up.
	retainedMB        float64
	attempted, failed int
	problems          []string
}

func (st *serveStage) fail(format string, args ...any) {
	st.failed++
	st.problems = append(st.problems, fmt.Sprintf(format, args...))
}

func (st *serveStage) add(s stepResult, what string) {
	st.attempted += s.sent
	st.failed += s.failed
	_, lateP99 := tailQuantile(s.late, 0.99, 10)
	singleQ, singleTail := tailQuantile(s.single, 0.99, 10)
	batchQ, batchTail := tailQuantile(s.batch, 0.99, 10)
	fmt.Fprintf(os.Stderr, "perfbench: %-20s sent %6d ok %6d failed %d  single p50 %.3f p90 %.3f p%.1f %.3f ms  batch p50 %.3f p90 %.3f p%.1f %.3f ms  late p99 %.3f ms\n",
		what, s.sent, s.sent-s.failed, s.failed, median(s.single), quantile(s.single, 0.9), 100*singleQ, singleTail,
		median(s.batch), quantile(s.batch, 0.9), 100*batchQ, batchTail, lateP99)
	if s.firstErr != nil {
		st.problems = append(st.problems, fmt.Sprintf("%s: %d of %d requests failed, first: %v", what, s.failed, s.sent, s.firstErr))
	}
}

// startRigs times RigReps rig start-ups, keeping the last rig running.
func (w workload) startRigs(dir string, st *serveStage) (*rig, error) {
	for i := 0; ; i++ {
		rg, s, err := startRig(dir)
		if err != nil {
			return nil, err
		}
		st.setupS = append(st.setupS, s)
		if i+1 >= rigReps {
			return rg, nil
		}
		rg.stop()
	}
}

// runServe drives the rig through a warm-up and then the measured step at
// the workload's rate, scraping every replica's /metrics once a second
// throughout. A traced run splits the step in two halves, untraced then
// traced, and then measures the serving layers in isolation.
func (w workload) runServe(ctx context.Context, seed int64, seconds float64, fx *fixture, tr *tracer) (*serveStage, map[string]float64, error) {
	st := &serveStage{}
	rg, err := w.startRigs(fx.dir, st)
	if err != nil {
		return nil, nil, err
	}
	defer rg.stop()
	conns := workers()
	client := newClient(conns)
	defer client.CloseIdleConnections()
	opClient := newClient(1)
	defer opClient.CloseIdleConnections()
	sc := startScraper(opClient, rg.addrs, scrapeTick)

	dur := time.Duration(w.serveSeconds(seconds) * float64(time.Second))
	// run replays one step's schedule, drawn from its own derived seed,
	// and scrapes replica 0 when it ends.
	run := func(what string, k int, d time.Duration, t *tracer) stepResult {
		sched := schedule(stat.DeriveSeed(seed, 500+k), serveRate, d, len(fx.models), len(fx.rows), fx.hot)
		res := runStep(ctx, client, rg.url, fx, sched, conns, t)
		st.add(res, what)
		st.attempted++
		if d, err := scrape(opClient, rg.addrs[0]); err != nil {
			st.fail("scrape after %s: %v", what, err)
		} else {
			st.scrapeMS = append(st.scrapeMS, float64(d.Nanoseconds())/1e6)
		}
		return res
	}
	run("warm-up", 0, warmup, nil)
	m := map[string]float64{}
	if tr == nil {
		st.step = run(fmt.Sprintf("step (%.0f req/s)", serveRate), 1, dur, nil)
		st.retainedMB = retainedHeapMB()
	} else {
		plain := run("untraced half-step", 1, dur/2, nil)
		withSpans := run("traced half-step", 2, dur/2, tr)
		m["tracing.overhead_single_p50_ms"] = median(withSpans.single) - median(plain.single)
		_, m["loadgen.late_p99_ms"] = tailQuantile(plain.late, 0.99, 10)
		m["gateway.affinity"] = affinity(withSpans.outcomes)
		if err := serveLayers(ctx, rg, fx, tr, m); err != nil {
			st.fail("serving layers: %v", err)
		}
		if n := len(st.scrapeMS); n > 0 {
			m["obs.scrape_ms"] = st.scrapeMS[n-1]
		}
	}
	sc.Stop()
	st.attempted += int(sc.scrapes.Load())
	st.failed += int(sc.failed.Load())
	if err, _ := sc.firstErr.Load().(error); err != nil {
		st.problems = append(st.problems, fmt.Sprintf("periodic scrape: %v", err))
	}
	var predictions, batches int64
	var lookups, hits int64
	for _, srv := range rg.servers {
		r := srv.Report()
		predictions += r.Predictions
		batches += r.Batches
		lookups += r.Cache.Lookups
		hits += r.Cache.Hits
		m["serve.shed"] += float64(r.Shed)
		m["predcache.coalesced"] += float64(r.Cache.Coalesced)
	}
	if batches > 0 {
		m["serve.rows_per_batch"] = float64(predictions) / float64(batches)
	}
	if lookups > 0 {
		m["predcache.hit_ratio"] = float64(hits) / float64(lookups)
	}
	return st, m, nil
}

// affinity is the share of hot (model, point) keys sent more than once
// whose every answer came from one replica.
func affinity(outs []outcome) float64 {
	seen := map[[2]int]map[string]int{}
	for _, o := range outs {
		if !o.hot || o.err != nil {
			continue
		}
		if seen[o.key] == nil {
			seen[o.key] = map[string]int{}
		}
		seen[o.key][o.replica]++
	}
	repeated, pinned := 0, 0
	for _, byReplica := range seen {
		n := 0
		for _, c := range byReplica {
			n += c
		}
		if n < 2 {
			continue
		}
		repeated++
		if len(byReplica) == 1 {
			pinned++
		}
	}
	if repeated == 0 {
		return 0
	}
	return float64(pinned) / float64(repeated)
}

// serveLayers times the serving path's layers one at a time from outside:
// loopback round trips direct to a replica and through the gateway, the
// replica handler in process, and the decode, resolve, encode and kernel
// entry points it is built from.
func serveLayers(ctx context.Context, rg *rig, fx *fixture, tr *tracer, m map[string]float64) error {
	var singles, batches [][]byte
	for mi := range fx.models {
		for _, p := range fx.hot[:4] {
			singles = append(singles, fx.body(request{model: mi, points: []int{p}}))
		}
	}
	r := stat.NewRand(int64(len(fx.rows)))
	for i := 0; i < 16; i++ {
		q := request{model: i % len(fx.models), batch: true, points: make([]int, batchRows)}
		for j := range q.points {
			q.points[j] = r.Intn(len(fx.rows))
		}
		batches = append(batches, fx.body(q))
	}

	// Round trips: one connection, sequential, the same single-row
	// bodies both ways, after a warm pass so both paths hit warm caches.
	client := newClient(1)
	defer client.CloseIdleConnections()
	direct := "http://" + rg.addrs[0] + "/v1/predict"
	via := rg.url + "/v1/predict"
	rtt := func(url, name string, rounds int) ([]float64, error) {
		var out []float64
		for k := 0; k < rounds; k++ {
			for _, b := range singles {
				start := time.Now()
				status, body, _, err := post(ctx, client, url, b)
				end := time.Now()
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				if err != nil {
					return nil, fmt.Errorf("%s round trip: %w", name, err)
				}
				tr.record(name, 0, name, start, end)
				out = append(out, float64(end.Sub(start).Nanoseconds())/1e3)
			}
		}
		return out, nil
	}
	if _, err := rtt(direct, "http.roundtrip", 2); err != nil {
		return err
	}
	if _, err := rtt(via, "gateway.roundtrip", 2); err != nil {
		return err
	}
	var directUS, viaUS []float64
	for k := 0; k < 5; k++ {
		d, err := rtt(direct, "http.roundtrip", 10)
		if err != nil {
			return err
		}
		g, err := rtt(via, "gateway.roundtrip", 10)
		if err != nil {
			return err
		}
		directUS, viaUS = append(directUS, d...), append(viaUS, g...)
	}
	m["http.rtt_us"] = median(directUS)
	m["gateway.overhead_us"] = median(viaUS) - median(directUS)

	// The replica handler in process, request construction excluded.
	srv := rg.servers[0]
	h := srv.Handler()
	newReq := func(b []byte) (*http.Request, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(b))
		req.Header.Set("Content-Type", "application/json")
		return req, httptest.NewRecorder()
	}
	var handlerErr error
	handle := func(b []byte) {
		req, rec := newReq(b)
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK && handlerErr == nil {
			handlerErr = fmt.Errorf("handler status %d: %s", rec.Code, rec.Body.String())
		}
	}
	perCall := func(name string, n int, bodies [][]byte, fn func([]byte)) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(bodies[i%len(bodies)])
		}
		end := time.Now()
		tr.record(name, 0, name, start, end)
		return float64(end.Sub(start).Nanoseconds()) / 1e3 / float64(n)
	}
	for _, cls := range []struct {
		name   string
		bodies [][]byte
		n      int
	}{{"single", singles, 4000}, {"batch", batches, 400}} {
		perCall("serve.handler", cls.n/4, cls.bodies, handle) // warm
		m["serve.handler_us."+cls.name] = perCall("serve.handler", cls.n, cls.bodies, handle)
		k := 0
		harness := allocsPer(cls.n, func() { newReq(cls.bodies[k%len(cls.bodies)]); k++ })
		k = 0
		total := allocsPer(cls.n, func() { handle(cls.bodies[k%len(cls.bodies)]); k++ })
		m["serve.handler_allocs."+cls.name] = total - harness
	}
	if handlerErr != nil {
		return handlerErr
	}

	// Decode, resolve (registry + schema + CheckRows) and encode.
	const n = 20000
	var decodeErr error
	m["serve.decode_us"] = perCall("serve.decode", n, singles, func(b []byte) {
		if _, err := serve.DecodePredictRequest(bytes.NewReader(b)); err != nil && decodeErr == nil {
			decodeErr = err
		}
	})
	reqs := make([]*serve.PredictRequest, len(singles))
	for i, b := range singles {
		q, err := serve.DecodePredictRequest(bytes.NewReader(b))
		if err != nil {
			return err
		}
		reqs[i] = q
	}
	var resolveErr error
	k := 0
	m["serve.resolve_us"] = perCall("serve.resolve", n, singles, func([]byte) {
		q := reqs[k%len(reqs)]
		k++
		model, _, ok := srv.Registry().Resolve(q.Model)
		if !ok {
			resolveErr = fmt.Errorf("model %q not in the registry", q.Model)
			return
		}
		rows, err := q.Resolve(model.Pred.Encoder().Schema())
		if err == nil {
			err = model.Pred.CheckRows(rows)
		}
		if err != nil && resolveErr == nil {
			resolveErr = err
		}
	})
	var buf bytes.Buffer
	y := fx.models[0].golden[0]
	resp := serve.PredictResponse{Model: fx.models[0].name, Kind: fx.models[0].kind.String(), N: 1, Predictions: []float64{y}, Prediction: &y}
	var encodeErr error
	m["serve.encode_us"] = perCall("serve.encode", n, singles, func([]byte) {
		buf.Reset()
		if err := serve.EncodeJSON(&buf, resp); err != nil && encodeErr == nil {
			encodeErr = err
		}
	})
	for _, err := range []error{decodeErr, resolveErr, encodeErr} {
		if err != nil {
			return err
		}
	}

	// The batch kernel on a 64-row batch, per row.
	wctx := engine.NewWorkerContext(ctx)
	rows := make([][]dataset.Value, batchRows)
	for i := range rows {
		rows[i] = fx.rows[r.Intn(len(fx.rows))]
	}
	out := make([]float64, batchRows)
	for _, sm := range fx.models {
		if !slices.Contains(kernelKinds, sm.kind) {
			continue
		}
		var kerr error
		calls := 2000
		perCall("serve.kernel", calls/4, batches, func([]byte) { kerr = sm.pred.PredictRowsInto(wctx, out, rows) })
		us := perCall("serve.kernel", calls, batches, func([]byte) {
			if err := sm.pred.PredictRowsInto(wctx, out, rows); err != nil {
				kerr = err
			}
		})
		if kerr != nil {
			return fmt.Errorf("%s kernel: %w", sm.name, kerr)
		}
		m["serve.kernel_ns_per_row."+sm.kind.String()] = us * 1e3 / batchRows
	}
	return nil
}
