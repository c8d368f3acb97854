package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/proofcache"
	"repro/internal/store"
	"repro/internal/sumcheck"
	"repro/internal/wire"
)

// probeReps is how many times the traced run repeats each direct layer
// call; per-layer metrics report the median.
const probeReps = 5

// probe is the traced run's direct calls into each layer, made after the
// workload's ops on its final dataset and the F2 query. Layers reachable
// only inside a server are called through their public functions on
// private copies of the same counts; wire-level calls go through the
// workload's own client c, and stats reads the serving side's counters.
// batch is the size of the workload's ingest batches.
func (b *bench) probe(h *held, name string, c *wire.Client, stats func() (wire.ServerStats, error), batch int) error {
	ds2, err := heldDataset(h, 2)
	if err != nil {
		return err
	}
	ds1, err := heldDataset(h, 1)
	if err != nil {
		return err
	}
	rng := newRNG(b.seed, 80)
	gen := newRNG(b.seed, 81)
	var proof *fs.Proof
	for rep := 0; rep < probeReps; rep++ {
		var snap *engine.Snapshot
		d, err := clock(func() (err error) { snap, err = ds2.SnapshotErr(); return err })
		if err != nil {
			return err
		}
		b.layer("engine.snapshot_us", us(d))
		var p core.ProverSession
		if d, err = clock(func() (err error) { p, err = snap.NewProver(f2.kind, f2.params); return err }); err != nil {
			return err
		}
		b.layer("engine.new_prover_ms", ms(d))
		v, err := snap.NewVerifier(f2.kind, f2.params, rng)
		if err != nil {
			return err
		}
		open, rounds, n, err := converse(p, v)
		if err != nil {
			return fmt.Errorf("probe conversation: %w", err)
		}
		b.layer("prover.open_ms", ms(open))
		b.layer("prover.round_us", us(rounds)/float64(n-1))
		b.layer("prover.query_ms", ms(open+rounds))
		b.layer("prover.rounds", float64(n))

		snap1, err := ds1.SnapshotErr()
		if err != nil {
			return err
		}
		if p, err = snap1.NewProver(f2.kind, f2.params); err != nil {
			return err
		}
		if v, err = snap1.NewVerifier(f2.kind, f2.params, rng); err != nil {
			return err
		}
		if open, rounds, _, err = converse(p, v); err != nil {
			return fmt.Errorf("probe serial conversation: %w", err)
		}
		b.layer("prover.serial_query_ms", ms(open+rounds))

		if d, err = clock(func() (err error) { proof, err = snap.GenerateProof(f2.kind, f2.params); return err }); err != nil {
			return err
		}
		b.layer("fs.prove_ms", ms(d))
		b.layer("fs.proof_bytes", float64(proof.EncodedSize()))
		// ds2 has taken the probe's own batches, so the verifier's
		// fingerprint comes from the snapshot rather than h.
		vf, err := snap.NewVerifier(f2.kind, f2.params, proof.Binding.RNG())
		if err != nil {
			return err
		}
		if d, err = clock(func() error { return proof.Binding.Verify(proof, vf) }); err != nil {
			return fmt.Errorf("probe proof verification: %w", err)
		}
		b.layer("fs.verify_us", us(d))

		if err := b.probeFold(snap, h.u, rng); err != nil {
			return err
		}

		// The snapshot above is still live, so this batch pays the
		// copy-on-write table clone, as the workload's ingests do.
		ups := genUpdates(gen, h.u, batch)
		if d, err = clock(func() error { return ds2.Ingest(ups) }); err != nil {
			return err
		}
		b.layer("engine.ingest_ms", ms(d))
	}
	b.layer("prover.parallel_speedup", median(b.layers["prover.serial_query_ms"])/median(b.layers["prover.query_ms"]))
	if err := b.probeCache(name, proof); err != nil {
		return err
	}
	if err := b.probeStore(h); err != nil {
		return err
	}
	if err := b.probeRehydrate(h); err != nil {
		return err
	}
	if err := b.probeWire(h, c, ds2); err != nil {
		return err
	}
	if _, ok := b.layers["proofcache.hit_ratio"]; !ok {
		st, err := stats()
		if err != nil {
			return err
		}
		pc := st.ProofCache
		b.layer("proofcache.hit_ratio", float64(pc.Hits)/float64(pc.Hits+pc.Misses))
		b.layer("proofcache.coalesced", float64(pc.Coalesced))
	}
	if _, ok := b.layers["shard.query_ms"]; !ok {
		return b.probeShard(h)
	}
	return nil
}

// clock times fn.
func clock(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// heldDataset is a private engine dataset holding h's counts.
func heldDataset(h *held, workers int) (*engine.Dataset, error) {
	ds, err := engine.NewDataset(fld, h.u, workers)
	if err != nil {
		return nil, err
	}
	return ds, ds.IngestColumns(h.nonzero())
}

// converse drives p against v, timing the prover's opening and the sum
// of its round steps; n is the number of prover messages.
func converse(p core.ProverSession, v core.VerifierSession) (open, rounds time.Duration, n int, err error) {
	t0 := time.Now()
	m, err := p.Open()
	open = time.Since(t0)
	if err != nil {
		return
	}
	n = 1
	ch, done, err := v.Begin(m)
	for err == nil && !done {
		t0 = time.Now()
		if m, err = p.Step(ch); err != nil {
			return
		}
		rounds += time.Since(t0)
		n++
		ch, done, err = v.Step(m)
	}
	return
}

// probeFold runs the F2 conversation over snap split into two slices:
// partial provers over each half of the field table, folded by a
// core.SplitAggregator — the router's per-round work without the wire.
func (b *bench) probeFold(snap *engine.Snapshot, u uint64, rng field.RNG) error {
	proto, err := core.NewFk(fld, u, 2)
	if err != nil {
		return err
	}
	elems := snap.Elems()
	half := uint64(len(elems) / 2)
	var parts [2]*core.PartialProver
	for k := range parts {
		lo := uint64(k) * half
		if parts[k], err = proto.NewPartialProverFromTable(elems[lo:lo+half], lo, lo+half, snap.Version()); err != nil {
			return err
		}
	}
	agg, err := core.NewSplitAggregator(fld, u, 2, sumcheck.Power{K: 2}, 0)
	if err != nil {
		return err
	}
	v, err := snap.NewVerifier(f2.kind, f2.params, rng)
	if err != nil {
		return err
	}
	var partial, fold time.Duration
	var partials, folds int
	step := func(fn func(*core.PartialProver) (core.Msg, error)) ([]core.Msg, error) {
		msgs := make([]core.Msg, len(parts))
		for k, pp := range parts {
			t0 := time.Now()
			m, err := fn(pp)
			partial += time.Since(t0)
			partials++
			if err != nil {
				return nil, err
			}
			msgs[k] = m
		}
		return msgs, nil
	}
	msgs, err := step(func(pp *core.PartialProver) (core.Msg, error) { return pp.Open() })
	if err != nil {
		return err
	}
	t0 := time.Now()
	out, err := agg.Open(msgs)
	fold += time.Since(t0)
	folds++
	if err != nil {
		return err
	}
	ch, done, err := v.Begin(out)
	for err == nil && !done {
		if agg.Broadcast() {
			if msgs, err = step(func(pp *core.PartialProver) (core.Msg, error) { return pp.Step(ch) }); err != nil {
				return err
			}
			t0 = time.Now()
			out, err = agg.Collect(msgs)
		} else {
			t0 = time.Now()
			out, err = agg.Next(ch.Elems[0])
		}
		fold += time.Since(t0)
		folds++
		if err != nil {
			return err
		}
		ch, done, err = v.Step(out)
	}
	if err != nil {
		return fmt.Errorf("probe split conversation: %w", err)
	}
	b.layer("shard.partial_round_us", us(partial)/float64(partials))
	b.layer("shard.fold_us", us(fold)/float64(folds))
	return nil
}

// probeCache times proof-cache hits on a present key.
func (b *bench) probeCache(name string, pf *fs.Proof) error {
	const gets = 1000
	c := proofcache.New(1 << 20)
	enc := pf.Encode()
	k := proofcache.Key{Dataset: name, Version: pf.Version, Query: string(pf.Query.Encode())}
	compute := func() ([]byte, error) { return enc, nil }
	if _, err := c.Get(k, compute); err != nil {
		return err
	}
	for rep := 0; rep < probeReps; rep++ {
		d, err := clock(func() error {
			for i := 0; i < gets; i++ {
				if _, err := c.Get(k, compute); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		b.layer("proofcache.hit_us", us(d)/gets)
	}
	if st := c.Stats(); st.Misses != 1 {
		b.problem("proof cache probe: %d misses for one key, want 1", st.Misses)
	}
	return nil
}

// probeStore times a checkpoint save and load of h's state.
func (b *bench) probeStore(h *held) error {
	var total int64
	for _, c := range h.counts {
		total += c
	}
	ckpt := &store.Checkpoint{
		Universe: h.u, Modulus: fld.Modulus(), Total: total,
		Updates: uint64(len(h.ups)), Version: h.version, Counts: h.counts,
	}
	path := filepath.Join(b.dir, "probe.ckpt")
	defer os.Remove(path)
	for rep := 0; rep < probeReps; rep++ {
		d, err := clock(func() error { return store.Save(path, ckpt) })
		if err != nil {
			return err
		}
		b.layer("store.save_ms", ms(d))
		var got *store.Checkpoint
		if d, err = clock(func() (err error) { got, err = store.Load(path, fld.Modulus()); return err }); err != nil {
			return err
		}
		b.layer("store.load_ms", ms(d))
		if !slices.Equal(got.Counts, h.counts) {
			b.problem("checkpoint probe: loaded counts differ from saved")
		}
	}
	return nil
}

// probeRehydrate times Dataset.SnapshotErr on an evicted dataset: two
// private datasets holding h's counts share an engine whose budget
// holds one, so each snapshot rehydrates one and evicts the other.
func (b *bench) probeRehydrate(h *held) error {
	dir, err := os.MkdirTemp(b.dir, "rehydrate-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cost, err := engine.TableCost(h.u)
	if err != nil {
		return err
	}
	eng := engine.New(fld, 2)
	if err := eng.SetDataDir(dir); err != nil {
		return err
	}
	eng.SetBudget(cost * 3 / 2)
	var ds [2]*engine.Dataset
	for k := range ds {
		if ds[k], err = eng.Open(fmt.Sprintf("probe%d", k), h.u); err != nil {
			return err
		}
		if err := ds[k].IngestColumns(h.nonzero()); err != nil {
			return err
		}
	}
	// Two warm-up switches write each checkpoint once; later evictions
	// find them current.
	for i := 0; i < 2+probeReps; i++ {
		d := ds[i%2]
		if d.Resident() {
			return fmt.Errorf("rehydrate probe: dataset %s is resident", d.Name())
		}
		t, err := clock(func() error { _, err := d.SnapshotErr(); return err })
		if err != nil {
			return err
		}
		if i >= 2 {
			b.layer("engine.rehydrate_ms", ms(t))
		}
	}
	return nil
}

// probeWire times the wire calls the workload's ops did not sample,
// through its own client: proof fetches (after one that may miss) and
// interactive F2 queries. Each query is paired with a local F2
// conversation over ds, a private dataset of the same size, for
// wire.overhead_ms: query latency less the prover's and the verifier's
// time.
func (b *bench) probeWire(h *held, c *wire.Client, ds *engine.Dataset) error {
	if _, ok := b.layers["wire.fetch_us"]; !ok {
		if _, err := c.FetchProof(f2.kind, f2.params, h.version); err != nil {
			return err
		}
		for rep := 0; rep < probeReps; rep++ {
			d, err := clock(func() error { _, err := c.FetchProof(f2.kind, f2.params, h.version); return err })
			if err != nil {
				return err
			}
			b.layer("wire.fetch_us", us(d))
		}
	}
	rng := newRNG(b.seed, 82)
	for rep := 0; rep < probeReps; rep++ {
		snap, err := ds.SnapshotErr()
		if err != nil {
			return err
		}
		p, err := snap.NewProver(f2.kind, f2.params)
		if err != nil {
			return err
		}
		lv, err := snap.NewVerifier(f2.kind, f2.params, rng)
		if err != nil {
			return err
		}
		open, rounds, _, err := converse(p, lv)
		if err != nil {
			return fmt.Errorf("probe conversation: %w", err)
		}
		v, err := b.verifier(h, f2, rng)
		if err != nil {
			return err
		}
		tv, done := b.traceVerifier(v, true)
		d, err := clock(func() error { _, err := c.Query(f2.kind, f2.params, tv); return err })
		done()
		if err != nil {
			return fmt.Errorf("probe query: %w", err)
		}
		b.layer("wire.query_ms", ms(d))
		b.layer("wire.overhead_ms", ms(d-open-rounds-tv.(*timedVerifier).d))
	}
	return nil
}

// probeShard times routed ingest and query calls for a workload that
// does not run through a router: a fresh two-owner split deployment
// takes h's updates in splitBatches batches and answers one F2 query,
// probeReps times over.
func (b *bench) probeShard(h *held) error {
	r := &rig{}
	defer r.close()
	addr, err := splitRig(r)
	if err != nil {
		return err
	}
	rng := newRNG(b.seed, 83)
	for rep := 0; rep < probeReps; rep++ {
		v, err := b.verifier(h, f2, rng)
		if err != nil {
			return err
		}
		s, err := b.session(addr, h, v)
		if s.c != nil {
			_ = s.c.Close()
		}
		if err != nil {
			return err
		}
		if s.qerr != nil {
			return fmt.Errorf("probe routed query: %w", s.qerr)
		}
		s.layers(b, "shard")
		dropSplit(r)
	}
	return nil
}
