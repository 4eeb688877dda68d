package loadtest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"perfpred/internal/gateway"
	"perfpred/internal/obs"
	"perfpred/internal/serve"
)

// serveReplica is one in-process perfpredd replica. The serve.Server
// (with its registry, batcher and prediction cache) lives for the whole
// run; only the HTTP listener is killed and rebound, which is exactly
// what a crashed-and-restarted process looks like from the gateway's
// side of the wire while keeping the cache and generation state a real
// warm restart would have to rebuild. (The harness verifies
// bit-equivalence and generation bookkeeping, neither of which a cold
// cache would change.)
type serveReplica struct {
	srv  *serve.Server
	addr string // fixed host:port, stable across kill/restart

	mu       sync.Mutex
	hs       *http.Server
	down     bool
	serveErr chan error
}

// bind (re)binds the replica's listener on its fixed address and starts
// serving. First call may pass addr ""; the bound address sticks.
func (sr *serveReplica) bind() error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	addr := sr.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("loadtest: binding replica %q: %w", addr, err)
	}
	sr.addr = ln.Addr().String()
	sr.srv.SetAddr(sr.addr)
	sr.hs = &http.Server{Handler: sr.srv.Handler()}
	sr.serveErr = make(chan error, 1)
	sr.down = false
	hs := sr.hs
	ch := sr.serveErr
	go func() { ch <- hs.Serve(ln) }()
	return nil
}

// kill force-closes the replica's listener and every open connection —
// a process crash as seen from the network. The serve.Server survives.
func (sr *serveReplica) kill() {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.down || sr.hs == nil {
		return
	}
	sr.down = true
	sr.hs.Close() //nolint:errcheck // force-close is the point
	<-sr.serveErr // reap the Serve goroutine
}

// stop gracefully drains the replica's HTTP surface (end-of-run
// teardown, not crash simulation).
func (sr *serveReplica) stop(ctx context.Context) error {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.down || sr.hs == nil {
		return nil
	}
	sr.down = true
	if err := sr.hs.Shutdown(ctx); err != nil {
		return err
	}
	err := <-sr.serveErr
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// rig is the serving topology of one run: the in-process replicas, and
// — only when GatewayReplicas ≥ 2 — the gateway fronting them. A bare
// daemon is the one-replica rig without a gateway. The rig also owns
// the kill/restart choreography and the per-replica reload census the
// invariant checks need.
type rig struct {
	reps    []*serveReplica
	addrs   []string         // replica addresses, fixed once bound
	gw      *gateway.Gateway // nil for a bare daemon
	gwHS    *http.Server
	gwErr   chan error
	baseURL string // where clients send the schedule

	mu       sync.Mutex
	reloadOK []int // acknowledged reloads per replica, in configuration order
	kills    int
	restarts int

	stopKill chan struct{}
	killWG   sync.WaitGroup
}

// startRig boots max(1, GatewayReplicas) replicas over the shared
// models dir and, with two or more, one gateway fronting them. Faults
// must already be armed: the servers and the gateway snapshot the
// active injector at construction.
func startRig(cfg Config, dir string) (*rig, error) {
	n := cfg.GatewayReplicas
	if n < 1 {
		n = 1
	}
	rg := &rig{reloadOK: make([]int, n), stopKill: make(chan struct{})}
	fail := func(err error) (*rig, error) {
		rg.teardown() //nolint:errcheck // already failing
		return nil, err
	}
	for i := 0; i < n; i++ {
		srv, err := serve.New(serve.Config{
			ModelsDir:      dir,
			RequestTimeout: cfg.RequestTimeout,
			Batcher: serve.BatcherConfig{
				QueueDepth: 8,
				MaxBatch:   8,
				MaxWait:    200 * time.Microsecond,
				Workers:    2,
			},
			CacheEntries: cfg.CacheEntries,
			Metrics:      obs.NewRegistry(),
		})
		if err != nil {
			return fail(fmt.Errorf("loadtest: starting replica %d: %w", i, err))
		}
		sr := &serveReplica{srv: srv}
		rg.reps = append(rg.reps, sr)
		if err := sr.bind(); err != nil {
			return fail(err)
		}
		rg.addrs = append(rg.addrs, sr.addr)
	}
	if n == 1 {
		rg.baseURL = "http://" + rg.addrs[0]
		return rg, nil
	}
	gw, err := gateway.New(gateway.Config{
		Replicas: rg.addrs,
		// Probe fast enough that a killed replica ejects (and a
		// restarted one readmits) well inside the schedule horizon, but
		// slow enough that a few requests land on the corpse first and
		// exercise the transparent-retry path.
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		FailThreshold:    2,
		ReadmitThreshold: 2,
		MaxProbeBackoff:  100 * time.Millisecond,
		MaxInFlight:      2 * cfg.Workers,
		HedgeDelay:       10 * time.Millisecond,
		RequestTimeout:   5 * time.Second,
		Metrics:          obs.NewRegistry(),
	})
	if err != nil {
		return fail(err)
	}
	rg.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	gw.SetAddr(ln.Addr().String())
	rg.baseURL = "http://" + ln.Addr().String()
	rg.gwHS = &http.Server{Handler: gw.Handler()}
	rg.gwErr = make(chan error, 1)
	go func() { rg.gwErr <- rg.gwHS.Serve(ln) }()
	return rg, nil
}

// scheduleKill arranges one replica crash at ~35% of the horizon and
// its restart at ~65%, picking the victim deterministically from the
// seed. The stopKill channel aborts the choreography at teardown.
func (rg *rig) scheduleKill(seed int64, horizon time.Duration) {
	victim := rg.reps[int(uint64(seed)%uint64(len(rg.reps)))]
	killAt := horizon * 35 / 100
	restartAt := horizon * 65 / 100
	rg.killWG.Add(1)
	go func() {
		defer rg.killWG.Done()
		select {
		case <-rg.stopKill:
			return
		case <-time.After(killAt):
		}
		victim.kill()
		rg.mu.Lock()
		rg.kills++
		rg.mu.Unlock()
		select {
		case <-rg.stopKill:
			return
		case <-time.After(restartAt - killAt):
		}
		if err := victim.bind(); err == nil {
			rg.mu.Lock()
			rg.restarts++
			rg.mu.Unlock()
		}
	}()
}

// replicaIndex maps a replica address (as a gateway header or fan-out
// result names it) to its configuration index. A bare daemon sets no
// replica header, so "" is its one replica.
func (rg *rig) replicaIndex(addr string) int {
	for i, a := range rg.addrs {
		if a == addr {
			return i
		}
	}
	if addr == "" && rg.gw == nil {
		return 0
	}
	return -1
}

// noteReload folds reload acknowledgements — a direct Server.Reload, an
// admin POST to a bare daemon, or a gateway fan-out's per-replica
// results — into the census. Failed results carry an Error and count
// for nothing.
func (rg *rig) noteReload(acks []gateway.ReloadResult) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	for _, a := range acks {
		if i := rg.replicaIndex(a.Addr); a.Error == "" && i >= 0 {
			rg.reloadOK[i]++
		}
	}
}

// teardown drains the rig in dependency order — gateway HTTP surface,
// gateway probes/in-flight, then each replica's HTTP surface, batcher
// and server — mirroring the SIGTERM contract of the real two-tier
// topology. Every admitted request has been answered when it returns.
// Safe on a partially constructed rig.
func (rg *rig) teardown() error {
	close(rg.stopKill)
	rg.killWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var first error
	if rg.gwHS != nil {
		if err := rg.gwHS.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		if err := <-rg.gwErr; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
			first = err
		}
	}
	if rg.gw != nil {
		rg.gw.Close()
	}
	for _, sr := range rg.reps {
		if err := sr.stop(ctx); err != nil && first == nil {
			first = err
		}
		sr.srv.Close()
	}
	return first
}
