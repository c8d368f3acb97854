package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// split_ingest: one dataset split two ways behind a shard.Router, with
// single-worker owners, u = 2^20. Each op is one upload session on a
// fresh split dataset — 2^16 updates in 8 scattered batches, then one
// routed interactive F2 query — after which both owner engines drop the
// dataset, so memory stays flat however many sessions a run makes.
const (
	splitU       = 1 << 20
	splitUpdates = 1 << 16
	splitBatches = 8
	splitName    = "split"
)

func splitIngest(b *bench) error {
	var (
		r    *rig
		addr string
	)
	gen := newRNG(b.seed, 1)
	vrng := newRNG(b.seed, 3)
	h := newHeld(splitU)
	// prep draws the next session's updates into the held copy and makes
	// the verifier's stream pass over them, outside every window.
	prep := func() (core.VerifierSession, error) {
		h.reset()
		h.apply(genUpdates(gen, splitU, splitUpdates))
		return b.verifier(h, f2, vrng)
	}
	err := b.setup(func(clk *setupClock) (func(), error) {
		r = &rig{}
		err := clk.run(func() (err error) { addr, err = splitRig(r); return err })
		if err != nil {
			return r.close, err
		}
		// The warm-up op: one upload session.
		v, err := prep()
		if err != nil {
			return r.close, err
		}
		var s session
		err = clk.run(func() (err error) {
			if s, err = b.session(addr, h, v); err == nil {
				err = s.qerr
			}
			return err
		})
		s.close(b, r, true)
		return r.close, err
	})
	if err != nil {
		return err
	}
	defer r.close()

	n := b.opCount(15)
	for i := 0; i < n; i++ {
		v, err := prep()
		if err != nil {
			return err
		}
		var s session
		var uerr error
		_, traced := b.op(i, func(traced bool) {
			tv, done := b.traceVerifier(v, traced)
			s, uerr = b.session(addr, h, tv)
			done()
		})
		s.close(b, r, false)
		if uerr != nil {
			return uerr
		}
		b.verdict(s.qerr, v, h.answer(f2))
		if traced {
			// The client's wire calls are the routed calls here.
			s.layers(b, "shard", "wire")
		}
		if s.qerr == nil {
			if err := b.countQuery(splitU, f2, s.st, v); err != nil {
				return err
			}
		}
	}

	// One more session stays attached for the tamper probes and traces.
	v, err := prep()
	if err != nil {
		return err
	}
	s, err := b.session(addr, h, v)
	if err == nil {
		err = s.qerr
	}
	if s.c != nil {
		defer s.c.Close()
	}
	if err != nil {
		return err
	}
	if err := b.tamperProof(s.c, h); err != nil {
		return err
	}
	if err := b.tamperInteractive(h); err != nil {
		return err
	}
	if b.trace {
		return b.probe(h, splitName, s.c, r.routers[0].AggregatedStats, splitUpdates/splitBatches)
	}
	return nil
}

// splitRig starts two single-worker owners and a router that splits
// the dataset splitName across them, one slice each.
func splitRig(r *rig) (string, error) {
	spec := &shard.SplitSpec{Slices: 2}
	tbl := &shard.Table{Splits: map[string]*shard.SplitSpec{splitName: spec}}
	for k := 0; k < spec.Slices; k++ {
		addr, err := r.server(1, nil)
		if err != nil {
			return "", err
		}
		s := shard.ShardInfo{Name: fmt.Sprintf("owner%d", k), Addr: addr}
		tbl.Shards = append(tbl.Shards, s)
		spec.Owners = append(spec.Owners, s.Name)
	}
	return r.router(tbl)
}

// session is one upload session's outcome.
type session struct {
	c       *wire.Client
	ingests []span
	query   span
	st      core.Stats
	qerr    error // the query's refusal or rejection
	sizes   []int // updates per ingest call
}

// session runs one upload session through the router at addr: dial,
// attach to the fresh split dataset, upload h's updates in splitBatches
// batches, and run one routed F2 query verified by v. The connection is
// left open in the returned session.
func (b *bench) session(addr string, h *held, v core.VerifierSession) (session, error) {
	var s session
	var err error
	if s.c, err = dial(addr); err != nil {
		return s, err
	}
	if err := attach(s.c, splitName, h.u, 0); err != nil {
		return s, err
	}
	per := (len(h.ups) + splitBatches - 1) / splitBatches
	for lo := 0; lo < len(h.ups); lo += per {
		batch := h.ups[lo:min(lo+per, len(h.ups))]
		var n uint64
		sp, err := b.time(func() (err error) { n, err = s.c.Ingest(batch); return err })
		if err != nil {
			return s, fmt.Errorf("routed ingest: %w", err)
		}
		if want := uint64(lo + len(batch)); n != want {
			return s, fmt.Errorf("routed ingest: router holds %d updates, want %d", n, want)
		}
		s.ingests = append(s.ingests, sp)
		s.sizes = append(s.sizes, len(batch))
	}
	s.query, _ = b.time(func() error { s.st, s.qerr = s.c.Query(f2.kind, f2.params, v); return nil })
	return s, nil
}

// close ends a finished session: its connection closes and both owners
// drop the dataset. A session after set-up counts toward ingest_mups.
func (s *session) close(b *bench, r *rig, setup bool) {
	if s.c != nil {
		_ = s.c.Close()
	}
	dropSplit(r)
	if setup {
		b.setupIng = append(b.setupIng, s.ingests...)
		b.setupN = append(b.setupN, s.sizes...)
	} else {
		b.ingests = append(b.ingests, s.ingests...)
		b.ingestN = append(b.ingestN, s.sizes...)
	}
}

// layers records a session's routed calls as per-layer samples under
// each of the layer prefixes given.
func (s *session) layers(b *bench, prefixes ...string) {
	for _, p := range prefixes {
		for _, sp := range s.ingests {
			b.layer(p+".ingest_ms", ms(sp.wall))
		}
		b.layer(p+".query_ms", ms(s.query.wall))
	}
}

// dropSplit drops the split dataset from every owner engine.
func dropSplit(r *rig) {
	for _, eng := range r.engines {
		eng.Drop(splitName)
	}
}
