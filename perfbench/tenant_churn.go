package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/wire"
)

// tenant_churn: one engine whose memory budget holds 2.5 of 6 datasets
// (u = 2^18), answering round-robin F2 queries over one connection that
// re-attaches to each dataset in turn. Every query rehydrates its
// dataset from its checkpoint and evicts the least recently used one;
// the datasets never change after set-up, so evictions find their
// checkpoint current and write nothing.
const (
	churnU       = 1 << 18
	churnSets    = 6
	churnInitial = 1 << 14
)

func tenantChurn(b *bench) error {
	var (
		r   *rig
		c   *wire.Client
		hs  []*held
		dir string
	)
	names := make([]string, churnSets)
	streams := make([][]stream.Update, churnSets)
	gen := newRNG(b.seed, 1)
	for k := range names {
		names[k] = fmt.Sprintf("tenant%d", k)
		streams[k] = genUpdates(gen, churnU, churnInitial)
	}
	vrng := newRNG(b.seed, 3)
	cost, err := engine.TableCost(churnU)
	if err != nil {
		return err
	}
	teardown := func() {
		r.close()
		_ = os.RemoveAll(dir)
	}
	err = b.setup(func(clk *setupClock) (func(), error) {
		r, hs = &rig{}, make([]*held, churnSets)
		var err error
		if dir, err = os.MkdirTemp(b.dir, "churn-*"); err != nil {
			return nil, err
		}
		err = clk.run(func() error {
			addr, err := r.server(2, func(s *wire.Server) {
				s.MemBudget = cost * 5 / 2
				s.DataDir = dir
			})
			if err != nil {
				return err
			}
			c, err = r.dial(addr)
			return err
		})
		if err != nil {
			return teardown, err
		}
		for k, name := range names {
			hs[k] = newHeld(churnU)
			if err := clk.run(func() error { return attach(c, name, churnU, 0) }); err != nil {
				return teardown, err
			}
			if err := clk.ingest(c, hs[k], streams[k]); err != nil {
				return teardown, err
			}
		}
		// The warm-up op: one tenant switch and query, to a dataset still
		// resident, so set-up never waits on an eviction's fsync.
		warm := churnSets - 2
		v, err := b.verifier(hs[warm], f2, vrng)
		if err != nil {
			return teardown, err
		}
		return teardown, clk.run(func() error {
			if err := attach(c, names[warm], churnU, churnInitial); err != nil {
				return err
			}
			_, err := c.Query(f2.kind, f2.params, v)
			return err
		})
	})
	if err != nil {
		return err
	}
	defer teardown()

	n := b.opCount(65)
	k := 0
	for i := 0; i < n; i++ {
		k = i % churnSets
		h := hs[k]
		v, err := b.verifier(h, f2, vrng)
		if err != nil {
			return err
		}
		var st core.Stats
		var qerr error
		sp, traced := b.op(i, func(traced bool) {
			if qerr = attach(c, names[k], churnU, uint64(len(h.ups))); qerr != nil {
				return
			}
			tv, done := b.traceVerifier(v, traced)
			st, qerr = c.Query(f2.kind, f2.params, tv)
			done()
		})
		if traced {
			b.layer("wire.query_ms", ms(sp.wall))
		}
		b.verdict(qerr, v, h.answer(f2))
		if qerr == nil {
			if err := b.countQuery(churnU, f2, st, v); err != nil {
				return err
			}
		}
	}
	if err := b.tamperProof(c, hs[k]); err != nil {
		return err
	}
	if err := b.tamperInteractive(hs[k]); err != nil {
		return err
	}
	if b.trace {
		return b.probe(hs[k], names[k], c, serverStats(r.servers[0]), churnInitial)
	}
	return nil
}

// attach re-attaches c to the named dataset, which must hold n updates.
func attach(c *wire.Client, name string, u uint64, n uint64) error {
	got, err := c.OpenDataset(name, u)
	if err != nil {
		return fmt.Errorf("open %q: %w", name, err)
	}
	if got != n {
		return fmt.Errorf("open %q: server holds %d updates, want %d", name, got, n)
	}
	return nil
}
