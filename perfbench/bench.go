package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
	"repro/internal/wire"
)

// setupReps is how many times each workload sets up per run; setup_s is
// the median.
const setupReps = 9

// bench is one run's measurements and self-checks.
type bench struct {
	timer
	seed    uint64
	seconds int
	trace   bool
	dir     string // scratch directory inside the checkout

	setups   []float64 // rescaled seconds per set-up repetition
	rawSetup []float64
	ops      []span // every verified op's window
	cpuWins  []span // windows op CPU is charged over
	ingests  []span // every Client.Ingest call after set-up
	ingestN  []int  // updates acknowledged per call
	setupIng []span // the set-up's Client.Ingest calls
	setupN   []int
	observes []span
	observed int

	attempted, failed int
	firstFail         error
	problems          []string // failed self-checks: tamper probes, exact counts

	commBytes     int64 // Σ protocol bytes over ops
	verifierWords int   // FkVerifier.SpaceWords of the F2 query

	refs map[refKey]refValues // expected exact counts per (u, kind)

	// Traced run only.
	layers     map[string][]float64
	tracedOps  []span
	plainOps   []span
	allocBytes uint64
	gcs        uint32
}

// opCount sizes a run's fixed schedule: the workload's op rate on the
// nominal host times --seconds, and at least 100 so p90 has ten samples
// beyond it.
func (b *bench) opCount(perSecond float64) int {
	return max(100, int(perSecond*float64(b.seconds)))
}

// setupClock accumulates the windows of one set-up repetition.
type setupClock struct {
	b     *bench
	parts []span
}

// run times step as part of the set-up.
func (s *setupClock) run(step func() error) error {
	s.b.host.mark()
	sp, err := s.b.time(step)
	s.parts = append(s.parts, sp)
	return err
}

// ingest uploads ups as part of the set-up.
func (s *setupClock) ingest(c *wire.Client, h *held, ups []stream.Update) error {
	sp, err := s.b.upload(c, h, ups)
	s.parts = append(s.parts, sp)
	if err == nil {
		s.b.setupIng = append(s.b.setupIng, sp)
		s.b.setupN = append(s.b.setupN, len(ups))
	}
	return err
}

// setup runs fn setupReps times and records each repetition's set-up
// time: the sum of the windows fn timed through its clock. Every
// repetition but the last is torn down with the teardown fn returns.
func (b *bench) setup(fn func(clk *setupClock) (teardown func(), err error)) error {
	for rep := 0; rep < setupReps; rep++ {
		clk := &setupClock{b: b}
		teardown, err := fn(clk)
		if err != nil {
			if teardown != nil {
				teardown()
			}
			return fmt.Errorf("setup: %w", err)
		}
		b.host.mark()
		s, _ := b.sums(clk.parts, true)
		r, _ := b.sums(clk.parts, false)
		b.setups = append(b.setups, s)
		b.rawSetup = append(b.rawSetup, r)
		if rep < setupReps-1 {
			teardown()
			// Start the next repetition from a collected heap, so the
			// torn-down deployments do not set the run's peak RSS.
			debug.FreeOSMemory()
		}
	}
	return nil
}

// verifier builds the client's verifier for q with randomness from rng
// and makes its stream pass over every held update: the verifier's
// Fig. 2a cost, timed outside every op window.
func (b *bench) verifier(h *held, q query, rng field.RNG) (engine.StreamVerifier, error) {
	v, err := engine.NewStreamVerifier(fld, h.u, q.kind, q.params, rng)
	if err != nil {
		return nil, err
	}
	b.host.mark()
	sp, err := b.time(func() error {
		for _, up := range h.ups {
			if err := v.Observe(up); err != nil {
				return err
			}
		}
		return nil
	})
	b.observes = append(b.observes, sp)
	b.observed += len(h.ups)
	return v, err
}

// ingest uploads ups through c as one timed window after set-up.
func (b *bench) ingest(c *wire.Client, h *held, ups []stream.Update) error {
	sp, err := b.upload(c, h, ups)
	if err == nil {
		b.ingests = append(b.ingests, sp)
		b.ingestN = append(b.ingestN, len(ups))
	}
	return err
}

// upload uploads ups through c as one timed window and records them in
// h once the server's acknowledged count matches.
func (b *bench) upload(c *wire.Client, h *held, ups []stream.Update) (span, error) {
	b.host.mark()
	var n uint64
	sp, err := b.time(func() (err error) {
		n, err = c.Ingest(ups)
		return err
	})
	if err != nil {
		return sp, fmt.Errorf("ingest: %w", err)
	}
	if want := uint64(len(h.ups) + len(ups)); n != want {
		return sp, fmt.Errorf("ingest: server holds %d updates, want %d", n, want)
	}
	h.apply(ups)
	b.layer("wire.ingest_ms", ms(sp.wall))
	return sp, nil
}

// op runs one verified op as a measured window, after a fresh reference
// sample. In a traced run every other block of four ops is traced — fn gets
// traced=true and the op's allocations are counted — so traced and
// untraced latency come from the same run.
func (b *bench) op(i int, fn func(traced bool)) (span, bool) {
	traced := b.trace && (i/4)%2 == 0
	b.host.mark()
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
	}
	sp, _ := b.time(func() error { fn(traced); return nil })
	if traced {
		runtime.ReadMemStats(&m1)
		b.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		b.gcs += m1.NumGC - m0.NumGC
		b.tracedOps = append(b.tracedOps, sp)
	} else if b.trace {
		b.plainOps = append(b.plainOps, sp)
	}
	b.ops = append(b.ops, sp)
	b.cpuWins = append(b.cpuWins, sp)
	return sp, traced
}

// verdict records one attempted op. It fails when the op returned an
// error (a rejection, refusal or transport failure) or when the answer
// the verifier accepted differs from the held copy's.
func (b *bench) verdict(err error, v core.VerifierSession, want field.Elem) {
	b.attempted++
	if err == nil {
		var got field.Elem
		if got, err = certified(v); err == nil && got != want {
			err = fmt.Errorf("accepted answer %d, held copy says %d", got, want)
		}
	}
	if err != nil {
		b.failed++
		if b.firstFail == nil {
			b.firstFail = err
		}
	}
}

// problem records a failed self-check; the run then reports
// correct=false.
func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// layer records one per-layer sample (traced runs only).
func (b *bench) layer(name string, v float64) {
	if b.trace {
		b.layers[name] = append(b.layers[name], v)
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// ---------------------------------------------------------------------
// Exact counts. The expected values come from a local, in-process run
// of the same query at the same universe size, independent of the wire,
// router and cache layers the ops go through.

type refKey struct {
	u    uint64
	kind engine.QueryKind
}

type refValues struct {
	stats core.Stats
	words int // verifier space after the conversation
}

// reference returns the expected exact counts for q at universe u.
func (b *bench) reference(u uint64, q query) (refValues, error) {
	k := refKey{u, q.kind}
	if r, ok := b.refs[k]; ok {
		return r, nil
	}
	counts := make([]int64, u)
	counts[u/3], counts[u-1] = 5, 2
	snap, err := engine.SnapshotFromCounts(fld, u, 0, counts)
	if err != nil {
		return refValues{}, err
	}
	p, err := snap.NewProver(q.kind, q.params)
	if err != nil {
		return refValues{}, err
	}
	v, err := snap.NewVerifier(q.kind, q.params, field.NewSplitMix64(1))
	if err != nil {
		return refValues{}, err
	}
	st, err := core.Run(p, v)
	if err != nil {
		return refValues{}, fmt.Errorf("reference run: %w", err)
	}
	r := refValues{stats: st}
	if fv, ok := v.(*core.FkVerifier); ok {
		r.words = fv.SpaceWords()
	}
	b.refs[k] = r
	return r, nil
}

// countQuery checks an accepted interactive query's exact counts
// against the reference and adds its protocol bytes.
func (b *bench) countQuery(u uint64, q query, st core.Stats, v core.VerifierSession) error {
	r, err := b.reference(u, q)
	if err != nil {
		return err
	}
	if st != r.stats {
		b.problem("query kind %d at u=%d: stats %+v, reference %+v", q.kind, u, st, r.stats)
	}
	b.checkWords(r, v)
	b.commBytes += int64(st.CommBytes())
	return nil
}

// checkWords checks an accepted F2 verifier's space against the
// reference and records it as verifier_words.
func (b *bench) checkWords(r refValues, v core.VerifierSession) {
	fv, ok := v.(*core.FkVerifier)
	if !ok {
		return
	}
	if w := fv.SpaceWords(); w != r.words {
		b.problem("F2 verifier holds %d words, reference %d", w, r.words)
	}
	b.verifierWords = r.words
}

// proofBytes is the expected encoded size of a posted F2 proof over the
// named dataset at universe u.
func proofBytes(name string, u uint64) (int, error) {
	eng := engine.New(fld, 0)
	ds, err := eng.Open(name, u)
	if err != nil {
		return 0, err
	}
	if err := ds.Ingest([]stream.Update{{Index: 1, Delta: 3}}); err != nil {
		return 0, err
	}
	snap, err := ds.SnapshotErr()
	if err != nil {
		return 0, err
	}
	pf, err := snap.GenerateProof(f2.kind, f2.params)
	if err != nil {
		return 0, err
	}
	return pf.EncodedSize(), nil
}

// ---------------------------------------------------------------------
// Tamper probes: every run must see both rejected, so a verifier that
// stopped checking cannot pass as a faster one.

// tamperProof fetches the posted F2 proof at h's version through c,
// flips one byte of one prover message, and requires the offline
// verifier to reject it.
func (b *bench) tamperProof(c *wire.Client, h *held) error {
	pf, err := c.FetchProof(f2.kind, f2.params, h.version)
	if err != nil {
		return fmt.Errorf("tamper probe fetch: %w", err)
	}
	enc := pf.Encode()
	rng := newRNG(b.seed, 90)
	last := pf.Messages[len(pf.Messages)-1]
	// Byte 0 of one element of the last message: the digest's 32 bytes
	// follow the final element.
	pos := len(enc) - 32 - 8*(1+int(rng.Uint64()%uint64(len(last.Elems))))
	enc[pos] ^= byte(1 + rng.Uint64()%255)
	bad, err := fs.DecodeProof(enc)
	if err == nil {
		var v engine.StreamVerifier
		if v, err = b.verifier(h, f2, bad.Binding.RNG()); err != nil {
			return err
		}
		err = bad.Binding.Verify(bad, v)
	}
	if err == nil {
		b.problem("tamper probe: proof with a flipped byte was accepted")
	}
	return nil
}

// tamperInteractive runs an interactive F2 conversation whose prover,
// built over h's counts, adds one to a field element of one message,
// and requires the client's verifier to reject it.
func (b *bench) tamperInteractive(h *held) error {
	snap, err := engine.SnapshotFromCounts(fld, h.u, 0, h.counts)
	if err != nil {
		return err
	}
	p, err := snap.NewProver(f2.kind, f2.params)
	if err != nil {
		return err
	}
	rng := newRNG(b.seed, 91)
	v, err := b.verifier(h, f2, rng)
	if err != nil {
		return err
	}
	r, err := b.reference(h.u, f2)
	if err != nil {
		return err
	}
	round := int(rng.Uint64() % uint64(r.stats.Rounds))
	tp := &core.TamperedProver{P: p, T: func(i int, m core.Msg) core.Msg {
		if i == round {
			m.Elems[0] = fld.Add(m.Elems[0], 1)
		}
		return m
	}}
	if _, err := core.Run(tp, v); !errors.Is(err, core.ErrRejected) {
		b.problem("tamper probe: verifier did not reject a tampered round-%d message (err %v)", round, err)
	}
	return nil
}

// ---------------------------------------------------------------------
// Traced verifier.

// timedVerifier times the client's verifier work per message.
type timedVerifier struct {
	core.VerifierSession
	d time.Duration
	n int
}

func (t *timedVerifier) Begin(m core.Msg) (core.Msg, bool, error) {
	t0 := time.Now()
	ch, done, err := t.VerifierSession.Begin(m)
	t.d += time.Since(t0)
	t.n++
	return ch, done, err
}

func (t *timedVerifier) Step(m core.Msg) (core.Msg, bool, error) {
	t0 := time.Now()
	ch, done, err := t.VerifierSession.Step(m)
	t.d += time.Since(t0)
	t.n++
	return ch, done, err
}

// traceVerifier wraps v for a traced op; done records its samples.
func (b *bench) traceVerifier(v core.VerifierSession, traced bool) (core.VerifierSession, func()) {
	if !traced {
		return v, func() {}
	}
	tv := &timedVerifier{VerifierSession: v}
	return tv, func() {
		if tv.n > 0 {
			b.layer("verifier.round_us", us(tv.d)/float64(tv.n))
		}
	}
}
