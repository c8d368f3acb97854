package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/wire"
)

// rig is the in-process deployment a workload runs against: wire
// servers and an optional shard router on loopback TCP listeners, and
// the clients dialed to them.
type rig struct {
	servers []*wire.Server
	engines []*engine.Engine
	routers []*shard.Router
	clients []*wire.Client
	wg      sync.WaitGroup
}

// listen serves fn's listener on a fresh loopback port.
func (r *rig) listen(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		_ = serve(ln) // returns once closed
	}()
	return ln.Addr().String(), nil
}

// server starts a wire.Server over its own engine with the given prover
// worker count; cfg may set further fields before it serves.
func (r *rig) server(workers int, cfg func(*wire.Server)) (string, error) {
	eng := engine.New(fld, workers)
	srv := &wire.Server{F: fld, Workers: workers, Engine: eng}
	if cfg != nil {
		cfg(srv)
	}
	r.servers = append(r.servers, srv)
	r.engines = append(r.engines, eng)
	return r.listen(srv.Serve)
}

// router starts a shard.Router over tbl.
func (r *rig) router(tbl *shard.Table) (string, error) {
	rt, err := shard.NewRouter(tbl)
	if err != nil {
		return "", err
	}
	r.routers = append(r.routers, rt)
	return r.listen(rt.Serve)
}

// dial connects a client that pins the benchmark's field for fetched
// proofs. The caller closes it.
func dial(addr string) (*wire.Client, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c.Timeout = time.Minute
	c.FieldModulus = fld.Modulus()
	return c, nil
}

// dial connects a client the rig closes.
func (r *rig) dial(addr string) (*wire.Client, error) {
	c, err := dial(addr)
	if err == nil {
		r.clients = append(r.clients, c)
	}
	return c, err
}

// close shuts down clients, routers and servers, and waits for every
// serving goroutine to return.
func (r *rig) close() {
	for _, c := range r.clients {
		_ = c.Close()
	}
	for _, rt := range r.routers {
		_ = rt.Close()
	}
	for _, s := range r.servers {
		_ = s.Close()
	}
	r.wg.Wait()
}

// serverStats reads a server's counters in the form a router's
// aggregated stats take.
func serverStats(s *wire.Server) func() (wire.ServerStats, error) {
	return func() (wire.ServerStats, error) { return s.Stats(), nil }
}
