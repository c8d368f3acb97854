package main

import (
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/wire"
)

// owner_rw: one owner on one connection to one engine (2 prover
// workers), u = 2^20. Interactive F2 and RANGE-SUM queries interleave,
// with a 1024-update ingest every 8 queries; each such ingest follows a
// snapshot and so pays the engine's O(u) copy-on-write table clone.
const (
	ownerU       = 1 << 20
	ownerInitial = 1 << 16
	ownerBatch   = 1024
	ownerEvery   = 8
	// Every fourth query is a RANGE-SUM: its prover is slower, so the
	// median and p90 each fall inside one kind's cluster rather than on
	// the boundary between them.
	ownerRangeEvery = 4
)

func ownerRW(b *bench) error {
	var (
		r *rig
		c *wire.Client
		h *held
	)
	initial := genUpdates(newRNG(b.seed, 1), ownerU, ownerInitial)
	qrng := newRNG(b.seed, 2)
	vrng := newRNG(b.seed, 3)
	err := b.setup(func(clk *setupClock) (func(), error) {
		r, h = &rig{}, newHeld(ownerU)
		err := clk.run(func() error {
			addr, err := r.server(2, nil)
			if err == nil {
				c, err = r.dial(addr)
			}
			if err == nil {
				err = attach(c, "owner", ownerU, 0)
			}
			return err
		})
		if err == nil {
			err = clk.ingest(c, h, initial)
		}
		if err != nil {
			return r.close, err
		}
		// One warm-up op per op type; each verifier's stream pass stays
		// outside the set-up windows.
		for _, q := range []query{f2, genRange(qrng, ownerU)} {
			v, err := b.verifier(h, q, vrng)
			if err != nil {
				return r.close, err
			}
			if err := clk.run(func() error { _, err := c.Query(q.kind, q.params, v); return err }); err != nil {
				return r.close, err
			}
		}
		return r.close, nil
	})
	if err != nil {
		return err
	}
	defer r.close()

	gen := newRNG(b.seed, 4)
	n := b.opCount(25)
	for i := 0; i < n; i++ {
		if i > 0 && i%ownerEvery == 0 {
			if err := b.ingest(c, h, genUpdates(gen, ownerU, ownerBatch)); err != nil {
				return err
			}
		}
		q := f2
		if i%ownerRangeEvery == ownerRangeEvery-1 {
			q = genRange(qrng, ownerU)
		}
		if err := b.interactive(i, c, h, q, vrng); err != nil {
			return err
		}
	}
	if err := b.tamperProof(c, h); err != nil {
		return err
	}
	if err := b.tamperInteractive(h); err != nil {
		return err
	}
	if b.trace {
		return b.probe(h, "owner", c, serverStats(r.servers[0]), ownerBatch)
	}
	return nil
}

// interactive runs one verified interactive query through c as op i:
// the verifier's stream pass first, then the op window from request to
// verdict, then the answer and exact-count checks. A traced F2 op's
// latency is also a wire.query_ms sample.
func (b *bench) interactive(i int, c *wire.Client, h *held, q query, rng field.RNG) error {
	v, err := b.verifier(h, q, rng)
	if err != nil {
		return err
	}
	var st core.Stats
	var qerr error
	sp, traced := b.op(i, func(traced bool) {
		tv, done := b.traceVerifier(v, traced)
		st, qerr = c.Query(q.kind, q.params, tv)
		done()
	})
	if traced && q == f2 {
		b.layer("wire.query_ms", ms(sp.wall))
	}
	b.verdict(qerr, v, h.answer(q))
	if qerr != nil {
		return nil
	}
	return b.countQuery(h.u, q, st, v)
}
