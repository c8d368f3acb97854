package main

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fs"
	"repro/internal/wire"
)

// proof_fanout: two connections fetch the posted Fiat–Shamir F2 proof
// (Client.FetchProof, field modulus and version pinned) and verify it
// offline, u = 2^18. Each epoch starts with one small ingest that bumps
// the version, so the first fetches of an epoch wait on the server's
// one prover run and the rest are proof-cache hits.
const (
	fanoutU       = 1 << 18
	fanoutInitial = 1 << 12
	fanoutBatch   = 64
	fanoutEpoch   = 50 // fetches per version, split over the connections
	fanoutConns   = 2
	fanoutName    = "fanout"
)

func proofFanout(b *bench) error {
	var (
		r  *rig
		cs []*wire.Client
		h  *held
	)
	initial := genUpdates(newRNG(b.seed, 1), fanoutU, fanoutInitial)
	gen := newRNG(b.seed, 4)
	wantBytes, err := proofBytes(fanoutName, fanoutU)
	if err != nil {
		return err
	}
	versions := 0 // distinct versions fetched from the current rig
	err = b.setup(func(clk *setupClock) (func(), error) {
		r, h, cs, versions = &rig{}, newHeld(fanoutU), nil, 0
		err := clk.run(func() error {
			addr, err := r.server(2, nil)
			for k := 0; k < fanoutConns && err == nil; k++ {
				var c *wire.Client
				if c, err = r.dial(addr); err == nil {
					err = attach(c, fanoutName, fanoutU, 0)
				}
				cs = append(cs, c)
			}
			return err
		})
		if err == nil {
			err = clk.ingest(cs[0], h, initial)
		}
		if err != nil {
			return r.close, err
		}
		// The warm-up op: one fetch (a miss) and offline verification.
		vs, err := b.proofVerifiers(h, 1)
		if err != nil {
			return r.close, err
		}
		versions++
		return r.close, clk.run(func() error {
			_, err := fetchVerify(cs[0], h.version, vs[0])
			return err
		})
	})
	if err != nil {
		return err
	}
	defer r.close()

	n := b.opCount(450)
	for i := 0; i < n; i += fanoutEpoch {
		// The first epoch fetches the warm-up op's version.
		if i > 0 {
			if err := b.ingest(cs[0], h, genUpdates(gen, fanoutU, fanoutBatch)); err != nil {
				return err
			}
			versions++
		}
		if err := b.fanoutEpoch(i/fanoutEpoch, cs, h, wantBytes); err != nil {
			return err
		}
	}
	if err := b.tamperProof(cs[0], h); err != nil {
		return err
	}
	if err := b.tamperInteractive(h); err != nil {
		return err
	}
	srv := r.servers[0]
	if pc := srv.Stats().ProofCache; pc.Misses != uint64(versions) {
		b.problem("proof cache: %d misses, want one per version fetched (%d)", pc.Misses, versions)
	}
	if b.trace {
		pc := srv.Stats().ProofCache
		b.layer("proofcache.hit_ratio", float64(pc.Hits)/float64(pc.Hits+pc.Misses))
		b.layer("proofcache.coalesced", float64(pc.Coalesced))
		return b.probe(h, fanoutName, cs[0], serverStats(srv), fanoutBatch)
	}
	return nil
}

// proofVerifiers builds n offline verifiers for the F2 proof at h's
// current version, each with its own stream pass: the challenges are
// derived from the binding the client expects, so nothing the server
// sends feeds them.
func (b *bench) proofVerifiers(h *held, n int) ([]engine.StreamVerifier, error) {
	bind := fs.Binding{
		Modulus:  fld.Modulus(),
		Universe: h.u,
		Dataset:  fanoutName,
		Version:  h.version,
		Query:    engine.FSQuery(f2.kind, f2.params),
	}
	vs := make([]engine.StreamVerifier, n)
	for k := range vs {
		var err error
		if vs[k], err = b.verifier(h, f2, bind.RNG()); err != nil {
			return nil, err
		}
	}
	return vs, nil
}

// fetchVerify fetches the posted F2 proof pinned to version and verifies
// it offline against v.
func fetchVerify(c *wire.Client, version uint64, v core.VerifierSession) (*fs.Proof, error) {
	pf, err := c.FetchProof(f2.kind, f2.params, version)
	if err != nil {
		return nil, err
	}
	return pf, pf.Binding.Verify(pf, v)
}

// fanoutEpoch runs one epoch's fetches: every verifier's stream pass
// first, then all connections fetching and verifying concurrently, one
// op at a time each. The epoch's CPU is charged over the concurrent
// phase as a whole.
func (b *bench) fanoutEpoch(epoch int, cs []*wire.Client, h *held, wantBytes int) error {
	vs, err := b.proofVerifiers(h, fanoutEpoch)
	if err != nil {
		return err
	}
	ref, err := b.reference(h.u, f2)
	if err != nil {
		return err
	}
	traced := b.trace && epoch%2 == 0
	type outcome struct {
		sp  span
		pf  *fs.Proof
		err error
	}
	out := make([]outcome, fanoutEpoch)
	b.host.mark()
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	phase, _ := b.time(func() error {
		var wg sync.WaitGroup
		for k, c := range cs {
			wg.Add(1)
			go func(k int, c *wire.Client) {
				defer wg.Done()
				for j := k; j < fanoutEpoch; j += len(cs) {
					o := &out[j]
					o.sp, _ = b.time(func() error {
						o.pf, o.err = fetchVerify(c, h.version, vs[j])
						return nil
					})
				}
			}(k, c)
		}
		wg.Wait()
		return nil
	})
	if traced {
		runtime.ReadMemStats(&m1)
		b.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		b.gcs += m1.NumGC - m0.NumGC
	}
	b.host.mark()
	b.cpuWins = append(b.cpuWins, phase)
	want := h.answer(f2)
	for j, o := range out {
		b.ops = append(b.ops, o.sp)
		if traced {
			b.tracedOps = append(b.tracedOps, o.sp)
		} else if b.trace {
			b.plainOps = append(b.plainOps, o.sp)
		}
		b.verdict(o.err, vs[j], want)
		if o.err != nil {
			continue
		}
		if got := o.pf.EncodedSize(); got != wantBytes {
			b.problem("fetched proof is %d bytes, reference %d", got, wantBytes)
		}
		if len(o.pf.Messages) != ref.stats.Rounds {
			b.problem("fetched proof has %d messages, reference %d rounds", len(o.pf.Messages), ref.stats.Rounds)
		}
		b.commBytes += int64(wantBytes)
		b.checkWords(ref, vs[j])
		if traced {
			b.layer("wire.fetch_us", us(o.sp.wall))
		}
	}
	return nil
}
