package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfpred/internal/core"
	"perfpred/internal/dataset"
	"perfpred/internal/engine"
	"perfpred/internal/gateway"
	"perfpred/internal/serve"
	"perfpred/internal/space"
)

// servedModel is one artifact the rig serves, with its offline golden
// predictions for every design point.
type servedModel struct {
	name   string
	kind   core.ModelKind
	pred   *core.Predictor // loaded back from the artifact file
	golden []float64       // PredictRowsInto over every point, offline
}

// fixture is the serving world: the artifact directory, the design
// points requests draw from, and each point's wire-encoded row.
type fixture struct {
	dir     string
	models  []servedModel
	rows    [][]dataset.Value
	rowJSON [][]byte
	hot     []int // hot pool of point indices
}

// buildFixture saves the explore stage's trained predictors for the
// served kinds as artifacts, loads them back (the bytes the registry will
// serve) and scores every design point offline.
func buildFixture(ctx context.Context, dir string, reports []core.ModelReport, kinds []core.ModelKind, seed int64) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir}
	schema := space.Schema()
	for _, mc := range space.Enumerate() {
		row := mc.Row()
		fx.rows = append(fx.rows, row)
		b, err := json.Marshal(wireRow(schema, row))
		if err != nil {
			return nil, err
		}
		fx.rowJSON = append(fx.rowJSON, b)
	}
	wctx := engine.NewWorkerContext(ctx)
	for _, k := range kinds {
		var p *core.Predictor
		for _, r := range reports {
			if r.Kind == k {
				p = r.Predictor
			}
		}
		if p == nil {
			return nil, fmt.Errorf("explore stage trained no %v to serve", k)
		}
		name := strings.ToLower(k.String())
		path := filepath.Join(dir, name+".json")
		if err := savePredictor(path, p); err != nil {
			return nil, err
		}
		loaded, err := core.LoadPredictorFile(path)
		if err != nil {
			return nil, err
		}
		golden := make([]float64, len(fx.rows))
		if err := loaded.PredictRowsInto(wctx, golden, fx.rows); err != nil {
			return nil, fmt.Errorf("offline scoring of %s: %w", name, err)
		}
		fx.models = append(fx.models, servedModel{name: name, kind: k, pred: loaded, golden: golden})
	}
	r := rand.New(rand.NewSource(seed))
	fx.hot = r.Perm(len(fx.rows))[:hotPool]
	return fx, nil
}

func savePredictor(path string, p *core.Predictor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.Save(f); err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", path, err)
	}
	return f.Close()
}

// wireRow renders a record the way /v1/predict accepts it: numbers,
// booleans and category labels in schema order.
func wireRow(s *dataset.Schema, row []dataset.Value) []any {
	out := make([]any, len(row))
	for i, f := range s.Fields {
		switch f.Kind {
		case dataset.Numeric:
			out[i] = row[i].Float()
		case dataset.Flag:
			out[i] = row[i].Bool()
		default:
			out[i] = row[i].Label()
		}
	}
	return out
}

// request is one scheduled prediction: due is its offset from the step
// start; points are design-point indices (one for a single-row request).
type request struct {
	due    time.Duration
	model  int
	batch  bool
	hot    bool
	points []int
}

// schedule draws a step's open-loop arrivals: Poisson at the given rate
// for the step's duration, each request's class, model and points drawn
// from the same seeded stream, so a seed always yields the same traffic.
func schedule(seed int64, rate float64, dur time.Duration, nModels, nPoints int, hot []int) []request {
	r := rand.New(rand.NewSource(seed))
	var out []request
	t := 0.0
	for {
		t += 1 / rate
		if t >= dur.Seconds() {
			return out
		}
		q := request{due: time.Duration(t * float64(time.Second)), model: r.Intn(nModels)}
		switch {
		case r.Float64() < batchFrac:
			q.batch = true
			q.points = make([]int, batchRows)
			for i := range q.points {
				q.points[i] = r.Intn(nPoints)
			}
		case r.Float64() < hotFrac:
			q.hot = true
			q.points = []int{hot[r.Intn(len(hot))]}
		default:
			q.points = []int{r.Intn(nPoints)}
		}
		out = append(out, q)
	}
}

// body renders a request's /v1/predict JSON body.
func (fx *fixture) body(q request) []byte {
	var b bytes.Buffer
	b.WriteString(`{"model":"`)
	b.WriteString(fx.models[q.model].name)
	if !q.batch {
		b.WriteString(`","row":`)
		b.Write(fx.rowJSON[q.points[0]])
		b.WriteString(`}`)
		return b.Bytes()
	}
	b.WriteString(`","rows":[`)
	for i, p := range q.points {
		if i > 0 {
			b.WriteByte(',')
		}
		b.Write(fx.rowJSON[p])
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// check verifies a response against offline scoring: status 200 and every
// prediction bit-identical to the golden value of its point.
func (fx *fixture) check(q request, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var resp struct {
		Predictions []float64 `json:"predictions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(resp.Predictions) != len(q.points) {
		return fmt.Errorf("%d predictions for %d rows", len(resp.Predictions), len(q.points))
	}
	golden := fx.models[q.model].golden
	for i, p := range q.points {
		if math.Float64bits(resp.Predictions[i]) != math.Float64bits(golden[p]) {
			return fmt.Errorf("%s point %d: served %v, offline %v", fx.models[q.model].name, p, resp.Predictions[i], golden[p])
		}
	}
	return nil
}

// rig is two serve.Server replicas on loopback listeners behind one
// gateway.Gateway, in process, with the shipped daemon and gateway
// defaults except for the prediction cache.
type rig struct {
	servers []*serve.Server
	hss     []*http.Server
	addrs   []string
	gw      *gateway.Gateway
	gwHS    *http.Server
	url     string
	wg      sync.WaitGroup
}

// startRig boots the rig and returns it with its set-up time: from the
// first serve.New until the gateway's /healthz reports every replica
// healthy.
func startRig(dir string) (*rig, float64, error) {
	rg := &rig{}
	start := time.Now()
	for i := 0; i < replicas; i++ {
		srv, err := serve.New(serve.Config{
			ModelsDir:      dir,
			RequestTimeout: 5 * time.Second,
			Batcher:        serve.BatcherConfig{QueueDepth: 256, MaxBatch: 64, MaxWait: 500 * time.Microsecond},
			CacheEntries:   cacheSize,
		})
		if err != nil {
			rg.stop()
			return nil, 0, fmt.Errorf("starting replica %d: %w", i, err)
		}
		rg.servers = append(rg.servers, srv)
		addr, hs, err := rg.listen(srv.Handler())
		if err != nil {
			srv.Close()
			rg.servers = rg.servers[:i]
			rg.stop()
			return nil, 0, err
		}
		srv.SetAddr(addr)
		rg.addrs = append(rg.addrs, addr)
		rg.hss = append(rg.hss, hs)
	}
	gw, err := gateway.New(gateway.Config{Replicas: rg.addrs})
	if err != nil {
		rg.stop()
		return nil, 0, fmt.Errorf("starting gateway: %w", err)
	}
	rg.gw = gw
	addr, hs, err := rg.listen(gw.Handler())
	if err != nil {
		rg.stop()
		return nil, 0, err
	}
	gw.SetAddr(addr)
	rg.gwHS = hs
	rg.url = "http://" + addr
	if err := waitHealthy(rg.url+"/healthz", replicas); err != nil {
		rg.stop()
		return nil, 0, err
	}
	return rg, time.Since(start).Seconds(), nil
}

func (rg *rig) listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: h}
	rg.wg.Add(1)
	go func() {
		defer rg.wg.Done()
		hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return ln.Addr().String(), hs, nil
}

// waitHealthy polls the gateway's /healthz until it reports want healthy
// replicas.
func waitHealthy(url string, want int) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			var h struct {
				Healthy int `json:"healthy"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.Healthy == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway not healthy with %d replicas after 10s (last error: %v)", want, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the rig gateway-first, as the daemons' SIGTERM contract
// orders it, and waits for every serving goroutine to exit.
func (rg *rig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rg.gwHS != nil {
		rg.gwHS.Shutdown(ctx) //nolint:errcheck // drain is best-effort at teardown
	}
	if rg.gw != nil {
		rg.gw.Close()
	}
	for _, hs := range rg.hss {
		hs.Shutdown(ctx) //nolint:errcheck // drain is best-effort at teardown
	}
	for _, srv := range rg.servers {
		srv.Close()
	}
	rg.wg.Wait()
}

// outcome is one request's measurement.
type outcome struct {
	latMS, lateMS float64
	batch, hot    bool
	err           error
	replica       string
	key           [2]int // model and point of a hot single
}

// stepResult summarizes one fixed-rate step.
type stepResult struct {
	sent, failed        int
	single, batch, late []float64
	outcomes            []outcome
	firstErr            error
}

// newClient returns an HTTP client with at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// runStep replays one step's schedule open loop: conns senders take
// requests in due order, wait until each is due, send it, and time it
// from its due time, so a stall delays — and is charged to — every
// request behind it. Spans are recorded per request when tr is set.
func runStep(ctx context.Context, client *http.Client, url string, fx *fixture, sched []request, conns int, tr *tracer) stepResult {
	res := stepResult{sent: len(sched), outcomes: make([]outcome, len(sched))}
	if len(sched) == 0 {
		return res
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if err := ctx.Err(); err != nil {
					res.outcomes[i] = outcome{err: err}
					continue
				}
				q := sched[i]
				due := t0.Add(q.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sendAt := time.Now()
				status, body, replica, err := post(ctx, client, url+"/v1/predict", fx.body(q))
				done := time.Now()
				if err == nil {
					err = fx.check(q, status, body)
				}
				o := outcome{
					latMS:  float64(done.Sub(due).Nanoseconds()) / 1e6,
					lateMS: float64(sendAt.Sub(due).Nanoseconds()) / 1e6,
					batch:  q.batch, hot: q.hot, err: err, replica: replica,
				}
				if q.hot {
					o.key = [2]int{q.model, q.points[0]}
				}
				res.outcomes[i] = o
				if tr != nil {
					id := fmt.Sprintf("req-%d", i)
					root := tr.record(id, 0, "loadgen.request", due, done)
					tr.record(id, root, "loadgen.wait", due, sendAt)
					tr.record(id, root, "gateway.roundtrip", sendAt, done)
				}
			}
		}()
	}
	wg.Wait()
	for _, o := range res.outcomes {
		if o.err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = o.err
			}
			continue
		}
		if o.batch {
			res.batch = append(res.batch, o.latMS)
		} else {
			res.single = append(res.single, o.latMS)
		}
		res.late = append(res.late, o.lateMS)
	}
	return res
}

// post sends one body and returns the status, response body and the
// replica the gateway says answered.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, "", err
	}
	return resp.StatusCode, b, resp.Header.Get(gateway.HeaderReplica), nil
}

// scraper GETs every replica's /metrics once a tick until stopped, as an
// operator's collector would.
type scraper struct {
	stop            chan struct{}
	done            chan struct{}
	scrapes, failed atomic.Int64
	firstErr        atomic.Value
}

func startScraper(client *http.Client, addrs []string, tick time.Duration) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			for _, a := range addrs {
				s.scrapes.Add(1)
				if _, err := scrape(client, a); err != nil {
					s.failed.Add(1)
					s.firstErr.CompareAndSwap(nil, err)
				}
			}
		}
	}()
	return s
}

func (s *scraper) Stop() {
	close(s.stop)
	<-s.done
}

// scrape fetches one replica's /metrics and returns how long it took.
func scrape(client *http.Client, addr string) (time.Duration, error) {
	start := time.Now()
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape status %d", resp.StatusCode)
	}
	return time.Since(start), nil
}
