// Package sumcheck implements the interactive sum-check protocol engine
// underlying all aggregation queries of Cormode–Thaler–Yi (§3, App. B.1).
//
// The statement being proved is
//
//	claim = Σ_{x ∈ [ℓ]^d} C(f_1(x), …, f_T(x))
//
// where each f_t is the low-degree extension of a streamed vector and C is
// a low-degree "combiner": v² for SELF-JOIN SIZE, v^k for frequency
// moments, v·w for INNER PRODUCT / RANGE-SUM, and h̃(v) for the
// frequency-based functions of §6.2.
//
// Protocol shape (§3.1): in round j the prover sends the univariate
//
//	g_j(x_j) = Σ_{x_{j+1..d} ∈ [ℓ]^{d-j}} C(f(r_1,…,r_{j-1}, x_j, x_{j+1..d}))
//
// as deg+1 evaluations g_j(0..deg). The verifier checks
// Σ_{x∈[ℓ]} g_j(x) = g_{j-1}(r_{j-1}) (round 1 checks against the claim),
// answers with the challenge r_j, and after round d checks
// g_d(r_d) = C(f(r)) against the value it computed from the stream.
// Sending evaluations rather than coefficients makes the paper's "reject
// if the degree of g is too high" check structural: a message of the wrong
// length is rejected outright.
//
// The honest prover uses the table-folding algorithm of Appendix B.1
// (there written for ℓ=2): after round j it replaces its size-m tables by
// size-m/ℓ tables folded by χ(r_j), so total work is O(deg·u) field
// operations — the "at most a logarithmic factor more work than simply
// providing the answer" property the paper emphasizes.
package sumcheck

import (
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// ErrReject is returned by the verifier when a prover message fails a
// consistency check; per Definition 1 the verifier outputs ⊥.
var ErrReject = errors.New("sumcheck: proof rejected")

// Combiner is the function C applied to the extensions inside the sum.
type Combiner interface {
	// Arity is the number of tables/extensions combined (T above).
	Arity() int
	// PerVariableDegree is the degree of C(f_1,…,f_T) in each variable
	// x_j, which bounds deg g_j. Each f_t has degree ℓ-1 per variable.
	PerVariableDegree(ell int) int
	// Apply evaluates C on one tuple of values.
	Apply(f field.Field, vals []field.Elem) field.Elem
}

// Power implements C(v) = v^K: K=2 is SELF-JOIN SIZE, larger K the k-th
// frequency moment (§3.2).
type Power struct{ K int }

// Arity returns 1.
func (p Power) Arity() int { return 1 }

// PerVariableDegree returns K·(ℓ-1).
func (p Power) PerVariableDegree(ell int) int { return p.K * (ell - 1) }

// Apply returns vals[0]^K.
func (p Power) Apply(f field.Field, vals []field.Elem) field.Elem {
	return f.Pow(vals[0], uint64(p.K))
}

// Product implements C(v, w) = v·w, the INNER PRODUCT combiner (§3.2).
type Product struct{}

// Arity returns 2.
func (Product) Arity() int { return 2 }

// PerVariableDegree returns 2(ℓ-1).
func (Product) PerVariableDegree(ell int) int { return 2 * (ell - 1) }

// Apply returns vals[0]·vals[1].
func (Product) Apply(f field.Field, vals []field.Elem) field.Elem {
	return f.Mul(vals[0], vals[1])
}

// PolyFn implements C(v) = H(v) for an explicit low-degree polynomial H —
// the h̃ of the frequency-based protocols (§6.2). The prover carries H in
// coefficient form; the verifier of those protocols carries only
// MinDegree (H=nil), since it never calls Apply — it computes h̃ at its
// single point by the O(1)-space oracle method (poly.EvalOracleInterpolant).
//
// MinDegree pins the declared degree so both parties agree on the message
// length even when H happens to have lower degree than the interpolation
// bound.
type PolyFn struct {
	H         poly.Poly
	MinDegree int
}

// Arity returns 1.
func (p PolyFn) Arity() int { return 1 }

// PerVariableDegree returns max(deg(H), MinDegree)·(ℓ-1).
func (p PolyFn) PerVariableDegree(ell int) int {
	d := p.H.Degree()
	if d < p.MinDegree {
		d = p.MinDegree
	}
	if d < 0 {
		d = 0
	}
	return d * (ell - 1)
}

// Apply returns H(vals[0]).
func (p PolyFn) Apply(f field.Field, vals []field.Elem) field.Elem {
	return p.H.Eval(f, vals[0])
}

// Config fixes the parameters shared by prover and verifier.
type Config struct {
	Field    field.Field
	Params   lde.Params
	Combiner Combiner

	// Workers sets the prover's fan-out: every table scan (claimed total,
	// per-round messages, folds) is split into contiguous chunks processed
	// by that many goroutines, with per-chunk partials combined in chunk
	// order. Because field arithmetic is exact, the transcript is
	// bit-identical for every worker count. 0 (the default) runs serially,
	// n < 0 selects runtime.NumCPU(). The verifier ignores it — checking is
	// already O(log u). Combiners must be safe for concurrent Apply calls
	// when Workers != 0 (the combiners in this package are pure).
	Workers int
}

func (c Config) degree() int {
	d := c.Combiner.PerVariableDegree(c.Params.Ell)
	if d < 1 {
		d = 1
	}
	return d
}

// MessageLen returns the number of field elements per round message
// (deg+1 evaluations).
func (c Config) MessageLen() int { return c.degree() + 1 }

// Rounds returns the number of rounds d.
func (c Config) Rounds() int { return c.Params.D }

// Validate reports whether the configuration is usable: a valid field, a
// combiner, and a message degree small enough for distinct evaluation
// points to exist in the field.
func (c Config) Validate() error {
	if !c.Field.Valid() {
		return errors.New("sumcheck: invalid field")
	}
	if c.Combiner == nil {
		return errors.New("sumcheck: nil combiner")
	}
	if uint64(c.degree())+1 > c.Field.Modulus() {
		return fmt.Errorf("sumcheck: message degree %d too large for field %d", c.degree(), c.Field.Modulus())
	}
	return nil
}

// ---------------------------------------------------------------------
// Prover

// Prover is the honest prover: it reads the caller's full tables in place
// for round 1 and answers later rounds from progressively folded copies.
// All table scans fan out across cfg.Workers goroutines in contiguous
// chunks; since field arithmetic is exact and partials are combined in
// chunk order, the transcript is bit-identical for every worker count.
type Prover struct {
	cfg     Config
	workers int
	// tables are the current round's tables: the caller's borrowed slices
	// until the first Fold, then views into bufs.
	tables [][]field.Elem
	// bufs[t] is table t's fold scratch, allocated at the first Fold: its
	// first U/ℓ entries take the folds of even rounds, the remaining U/ℓ²
	// those of odd rounds. A fold's source is always the other half (or
	// the borrowed table), so the prover never writes what it reads.
	bufs    [][]field.Elem
	chiAt   [][]field.Elem // chiAt[c][k] = χ_k(c) for evaluation points c=0..deg
	cElems  []field.Elem   // cElems[c] = c as a field element
	weights []field.Elem   // Lagrange basis weights for arbitrary-point folds
	round   int
	// pending holds the next round's message when the previous Fold ran a
	// fused fold+message kernel (see fuseKind); RoundMessage hands it out
	// and clears it. The fused kernels compute exactly the sums the plain
	// path would, so the transcript is unchanged.
	pending []field.Elem
}

// Fused-kernel dispatch: for the ℓ=2 protocols whose combiner the kernel
// layer knows — C(v)=v² (SELF-JOIN SIZE / F2) and C(v,w)=v·w (INNER
// PRODUCT) — the prover's dominant table walks collapse into single-pass
// field kernels: Fold computes the next message while the folded values
// are still in registers, and round 0 / Total use the pair-walk and lazy
// dot kernels. Every other combiner takes the generic path.
const (
	fuseNone = iota
	fuseSq   // Power{K:2}: message (Σ e0², Σ e1², Σ e2²)
	fuseProd // Product: message (Σ eA0·eB0, Σ eA1·eB1, Σ eA2·eB2)
)

func (p *Prover) fuseKind() int {
	if p.cfg.Params.Ell != 2 {
		return fuseNone
	}
	switch c := p.cfg.Combiner.(type) {
	case Power:
		if c.K == 2 {
			return fuseSq
		}
	case Product:
		return fuseProd
	}
	return fuseNone
}

// NewProver builds a prover over explicit tables, one per combiner slot,
// each of length exactly ℓ^d. Tables are borrowed, not copied: the prover
// never writes them, but reads them in place until its first Fold, so the
// caller must not modify them before then. Every later round reads only
// the prover's own fold buffers.
func NewProver(cfg Config, tables ...[]field.Elem) (*Prover, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.Combiner.Arity() {
		return nil, fmt.Errorf("sumcheck: combiner arity %d but %d tables", cfg.Combiner.Arity(), len(tables))
	}
	for t, tab := range tables {
		if uint64(len(tab)) != cfg.Params.U {
			return nil, fmt.Errorf("sumcheck: table %d has %d entries, want %d", t, len(tab), cfg.Params.U)
		}
	}
	deg := cfg.degree()
	weights := lde.BasisWeights(cfg.Field, cfg.Params.Ell)
	cElems := make([]field.Elem, deg+1)
	for c := 0; c <= deg; c++ {
		cElems[c] = cfg.Field.Reduce(uint64(c))
	}
	chiAt := lde.ChiTables(cfg.Field, weights, cElems)
	return &Prover{
		cfg:     cfg,
		workers: parallel.Workers(cfg.Workers),
		// Folds replace entries, so keep the caller's slice of slices intact.
		tables:  append([][]field.Elem(nil), tables...),
		chiAt:   chiAt,
		cElems:  cElems,
		weights: weights,
	}, nil
}

// Total returns the true value of the sum — the answer the prover claims —
// from a separate pass over the current tables. The square and product
// combiners reduce to a lazy-accumulating dot product; other combiners
// walk the tables through Apply. OpenMessage yields the same value without
// the extra pass.
func (p *Prover) Total() field.Elem {
	f := p.cfg.Field
	switch c := p.cfg.Combiner.(type) {
	case Power:
		if c.K == 2 {
			return p.parallelDot(p.tables[0], p.tables[0])
		}
	case Product:
		return p.parallelDot(p.tables[0], p.tables[1])
	}
	n := len(p.tables[0])
	partials := make([]field.Elem, parallel.Chunks(p.workers, n))
	parallel.For(p.workers, n, func(chunk, lo, hi int) {
		vals := make([]field.Elem, len(p.tables))
		var total field.Elem
		for i := lo; i < hi; i++ {
			for t := range p.tables {
				vals[t] = p.tables[t][i]
			}
			total = f.Add(total, p.cfg.Combiner.Apply(f, vals))
		}
		partials[chunk] = total
	})
	return f.SumSlice(partials)
}

// parallelDot computes Σ_i a[i]·b[i] across the worker pool; per-chunk
// partials are exact 192-bit sums, so the result matches the serial walk.
func (p *Prover) parallelDot(a, b []field.Elem) field.Elem {
	f := p.cfg.Field
	partials := make([]field.Elem, parallel.Chunks(p.workers, len(a)))
	parallel.For(p.workers, len(a), func(chunk, lo, hi int) {
		partials[chunk] = f.DotSlices(a[lo:hi], b[lo:hi])
	})
	return f.SumSlice(partials)
}

// OpenMessage opens the conversation: it returns the claimed total and the
// round-1 message g_1(0..deg) from one pass over the tables. The claim is
// Σ_{c<ℓ} g_1(c), exactly the sum the verifier checks g_1 against, so it
// equals Total. It must be called in place of round 1's RoundMessage.
func (p *Prover) OpenMessage() (field.Elem, []field.Elem, error) {
	if p.round != 0 {
		return 0, nil, fmt.Errorf("sumcheck: opening requested at round %d", p.round+1)
	}
	msg, err := p.RoundMessage()
	if err != nil {
		return 0, nil, err
	}
	claim, err := poly.SumPrefix(p.cfg.Field, msg, p.cfg.Params.Ell)
	if err != nil {
		return 0, nil, err
	}
	return claim, msg, nil
}

// RoundMessage computes the evaluations g_j(0..deg) for the current round.
// It must be called exactly once per round, alternating with Fold.
func (p *Prover) RoundMessage() ([]field.Elem, error) {
	if p.round >= p.cfg.Params.D {
		return nil, fmt.Errorf("sumcheck: all %d rounds already played", p.cfg.Params.D)
	}
	if p.pending != nil {
		msg := p.pending
		p.pending = nil
		return msg, nil
	}
	if kind := p.fuseKind(); kind != fuseNone {
		return p.messageFused(kind), nil
	}
	f := p.cfg.Field
	ell := p.cfg.Params.Ell
	deg := p.cfg.degree()
	size := len(p.tables[0]) / ell
	// Each index costs ~(deg+1)·ℓ·arity field ops, so scale the grain down
	// accordingly: coarse decompositions (large ℓ, few but heavy indices)
	// must still fan out.
	grain := grainFor((deg + 1) * ell * len(p.tables))
	partials := make([][]field.Elem, parallel.ChunksGrain(p.workers, size, grain))
	parallel.ForGrain(p.workers, size, grain, func(chunk, lo, hi int) {
		out := make([]field.Elem, deg+1)
		vals := make([]field.Elem, len(p.tables))
		diffs := make([]field.Elem, len(p.tables))
		for w := lo; w < hi; w++ {
			base := w * ell
			if ell == 2 {
				for t, tab := range p.tables {
					diffs[t] = f.Sub(tab[base+1], tab[base])
				}
			}
			for c := 0; c <= deg; c++ {
				for t, tab := range p.tables {
					switch {
					case c < ell:
						// χ at a node is an indicator: direct read.
						vals[t] = tab[base+c]
					case ell == 2:
						// (1-c)·T0 + c·T1 = T0 + c·(T1-T0): one multiply.
						vals[t] = f.Add(tab[base], f.Mul(p.cElems[c], diffs[t]))
					default:
						vals[t] = f.DotSlices(p.chiAt[c], tab[base:base+ell])
					}
				}
				out[c] = f.Add(out[c], p.cfg.Combiner.Apply(f, vals))
			}
		}
		partials[chunk] = out
	})
	out := make([]field.Elem, deg+1)
	for _, part := range partials {
		f.AddSlices(out, out, part)
	}
	return out, nil
}

// messageFused computes the current round message with the pair-walk
// kernels (no pending fold to exploit — round 0, or a Fold that could not
// fuse). Pairs split across workers; per-chunk partials are exact sums.
func (p *Prover) messageFused(kind int) []field.Elem {
	f := p.cfg.Field
	npairs := len(p.tables[0]) / 2
	partials := make([][3]field.Elem, parallel.Chunks(p.workers, npairs))
	parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
		var g0, g1, g2 field.Elem
		if kind == fuseSq {
			g0, g1, g2 = f.PairsSumSq(p.tables[0][2*lo : 2*hi])
		} else {
			g0, g1, g2 = f.PairsSumProd(p.tables[0][2*lo:2*hi], p.tables[1][2*lo:2*hi])
		}
		partials[chunk] = [3]field.Elem{g0, g1, g2}
	})
	out := make([]field.Elem, 3)
	for _, pt := range partials {
		out[0] = f.Add(out[0], pt[0])
		out[1] = f.Add(out[1], pt[1])
		out[2] = f.Add(out[2], pt[2])
	}
	return out
}

// foldFused folds every table by r and computes the next round's message
// in the same pass, leaving it in p.pending. Chunking is in units of
// next-table pairs so kernel boundaries always align.
func (p *Prover) foldFused(kind int, r field.Elem) {
	f := p.cfg.Field
	size := len(p.tables[0]) / 2
	npairs := size / 2
	partials := make([][3]field.Elem, parallel.Chunks(p.workers, npairs))
	if kind == fuseSq {
		tab, next := p.tables[0], p.foldDst(0, size)
		parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
			g0, g1, g2 := f.FoldPairsSumSq(next[2*lo:2*hi], tab[4*lo:4*hi], r)
			partials[chunk] = [3]field.Elem{g0, g1, g2}
		})
		p.tables[0] = next
	} else {
		tabA, tabB := p.tables[0], p.tables[1]
		nextA, nextB := p.foldDst(0, size), p.foldDst(1, size)
		parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
			g0, g1, g2 := f.FoldPairsSumProd(
				nextA[2*lo:2*hi], nextB[2*lo:2*hi],
				tabA[4*lo:4*hi], tabB[4*lo:4*hi], r)
			partials[chunk] = [3]field.Elem{g0, g1, g2}
		})
		p.tables[0], p.tables[1] = nextA, nextB
	}
	out := make([]field.Elem, 3)
	for _, pt := range partials {
		out[0] = f.Add(out[0], pt[0])
		out[1] = f.Add(out[1], pt[1])
		out[2] = f.Add(out[2], pt[2])
	}
	p.pending = out
}

// Fold binds the current round's variable to the verifier's challenge r,
// shrinking every table by a factor of ℓ.
func (p *Prover) Fold(r field.Elem) error {
	if p.round >= p.cfg.Params.D {
		return fmt.Errorf("sumcheck: all %d rounds already folded", p.cfg.Params.D)
	}
	p.pending = nil
	if kind := p.fuseKind(); kind != fuseNone && p.round+1 < p.cfg.Params.D {
		// The next table still has ≥2 pairs, so fold and next message
		// share one pass over it.
		p.foldFused(kind, r)
		p.round++
		return nil
	}
	f := p.cfg.Field
	ell := p.cfg.Params.Ell
	var chi []field.Elem
	if ell != 2 {
		chi = lde.AllChi(f, p.weights, r)
	}
	for t, tab := range p.tables {
		size := len(tab) / ell
		next := p.foldDst(t, size)
		if ell == 2 {
			parallel.For(p.workers, size, func(_, lo, hi int) {
				// (1-r)·T0 + r·T1 = T0 + r·(T1-T0).
				f.FoldPairs(next[lo:hi], tab[2*lo:2*hi], r)
			})
		} else {
			parallel.ForGrain(p.workers, size, grainFor(ell), func(_, lo, hi int) {
				for w := lo; w < hi; w++ {
					next[w] = f.DotSlices(chi, tab[w*ell:(w+1)*ell])
				}
			})
		}
		p.tables[t] = next
	}
	p.round++
	return nil
}

// foldDst returns the size-entry destination of the current round's fold
// of table t: the U/ℓ half of its buffer in even rounds, the U/ℓ² half in
// odd ones. The buffers are allocated together at the first Fold.
func (p *Prover) foldDst(t, size int) []field.Elem {
	first := int(p.cfg.Params.U) / p.cfg.Params.Ell
	if p.bufs == nil {
		p.bufs = make([][]field.Elem, len(p.tables))
		for i := range p.bufs {
			p.bufs[i] = make([]field.Elem, first+first/p.cfg.Params.Ell)
		}
	}
	if p.round%2 == 0 {
		return p.bufs[t][:size]
	}
	return p.bufs[t][first : first+size]
}

// Round reports the current round index (0-based; equals the number of
// folds performed).
func (p *Prover) Round() int { return p.round }

// grainFor scales the parallel grain down by the per-index cost (in field
// operations) so the fork threshold tracks work, not element count.
func grainFor(cost int) int {
	if cost < 1 {
		cost = 1
	}
	g := parallel.MinGrain / cost
	if g < 1 {
		g = 1
	}
	return g
}

// ---------------------------------------------------------------------
// Verifier

// Verifier checks the conversation. It is constructed after the stream
// phase: by then the verifier knows the claimed total and has computed
// C(f_1(r),…,f_T(r)) from its streaming LDE evaluations.
type Verifier struct {
	cfg      Config
	r        []field.Elem // pre-sampled challenges, revealed one per round
	claim    field.Elem   // value the next message must sum to
	expected field.Elem   // C(f(r)), the final check anchor
	ev       *poly.ConsecutiveEvaluator
	round    int
	rejected bool
}

// NewVerifier constructs a verifier for the given claim.
//
//   - r is the secret random point the verifier chose before the stream
//     (exactly the point at which it evaluated the LDEs);
//   - claimedTotal is the answer the prover asserts;
//   - expectedFinal is C applied to the streamed LDE evaluations at r.
func NewVerifier(cfg Config, r []field.Elem, claimedTotal, expectedFinal field.Elem) (*Verifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(r) != cfg.Params.D {
		return nil, fmt.Errorf("sumcheck: challenge vector has %d entries, want %d", len(r), cfg.Params.D)
	}
	ev, err := poly.NewConsecutiveEvaluator(cfg.Field, cfg.MessageLen())
	if err != nil {
		return nil, err
	}
	return &Verifier{
		cfg:      cfg,
		r:        append([]field.Elem(nil), r...),
		claim:    claimedTotal,
		expected: expectedFinal,
		ev:       ev,
	}, nil
}

// Receive processes the round message g_j(0..deg). It returns ErrReject
// (wrapped with detail) if any check fails. After the last round it
// performs the final LDE consistency check.
func (v *Verifier) Receive(evals []field.Elem) error {
	if v.rejected {
		return fmt.Errorf("%w: verifier already rejected", ErrReject)
	}
	if v.round >= v.cfg.Params.D {
		return fmt.Errorf("sumcheck: message after final round")
	}
	// Structural degree check (the paper's "rejects if the degree of g is
	// too high").
	if len(evals) != v.cfg.MessageLen() {
		v.rejected = true
		return fmt.Errorf("%w: round %d message has %d evaluations, want %d",
			ErrReject, v.round+1, len(evals), v.cfg.MessageLen())
	}
	for _, e := range evals {
		if uint64(e) >= v.cfg.Field.Modulus() {
			v.rejected = true
			return fmt.Errorf("%w: round %d message contains non-canonical element", ErrReject, v.round+1)
		}
	}
	sum, err := poly.SumPrefix(v.cfg.Field, evals, v.cfg.Params.Ell)
	if err != nil {
		return err
	}
	if sum != v.claim {
		v.rejected = true
		return fmt.Errorf("%w: round %d sum %d does not match claim %d", ErrReject, v.round+1, sum, v.claim)
	}
	rj := v.r[v.round]
	next, err := v.ev.Eval(evals, rj)
	if err != nil {
		return err
	}
	v.claim = next
	v.round++
	if v.round == v.cfg.Params.D {
		if v.claim != v.expected {
			v.rejected = true
			return fmt.Errorf("%w: final check g_d(r_d)=%d ≠ C(f(r))=%d", ErrReject, v.claim, v.expected)
		}
	}
	return nil
}

// Challenge returns the challenge to reveal to the prover after the most
// recent message, i.e. r_j for the round just received. It must only be
// called when a round has been received and the protocol is not finished.
func (v *Verifier) Challenge() (field.Elem, error) {
	if v.round == 0 || v.round > v.cfg.Params.D {
		return 0, fmt.Errorf("sumcheck: no challenge pending at round %d", v.round)
	}
	return v.r[v.round-1], nil
}

// Done reports whether all d rounds have been received.
func (v *Verifier) Done() bool { return v.round == v.cfg.Params.D }

// Accepted reports whether the verifier finished all rounds without
// rejecting.
func (v *Verifier) Accepted() bool { return v.Done() && !v.rejected }

// Round returns the number of messages received so far.
func (v *Verifier) Round() int { return v.round }

// SpaceWords reports the verifier's working memory in the paper's
// accounting: the d challenges, the running claim, the expected final
// value, and the deg+1 barycentric weights of the message evaluator.
func (v *Verifier) SpaceWords() int {
	return v.cfg.Params.D + 2 + v.cfg.MessageLen()
}

// ---------------------------------------------------------------------
// Local runner

// Transcript records one full conversation for inspection and accounting.
type Transcript struct {
	Messages   [][]field.Elem // prover → verifier, one per round
	Challenges []field.Elem   // verifier → prover (r_1..r_{d-1} are sent; r_d never travels)
}

// CommWords counts the field elements exchanged in both directions, the
// paper's communication measure t.
func (tr Transcript) CommWords() int {
	n := len(tr.Challenges)
	for _, m := range tr.Messages {
		n += len(m)
	}
	return n
}

// Run executes the complete conversation between a local prover and
// verifier, optionally passing each message through tamper (used by the
// soundness experiments; nil means honest delivery). It returns the
// transcript and the verifier's verdict: a nil error means accepted.
func Run(p *Prover, v *Verifier, tamper func(round int, evals []field.Elem) []field.Elem) (Transcript, error) {
	var tr Transcript
	d := v.cfg.Params.D
	for j := 0; j < d; j++ {
		msg, err := p.RoundMessage()
		if err != nil {
			return tr, err
		}
		if tamper != nil {
			msg = tamper(j+1, msg)
		}
		tr.Messages = append(tr.Messages, msg)
		if err := v.Receive(msg); err != nil {
			return tr, err
		}
		// The prover needs r_j to proceed to round j+1; after the final
		// round no challenge is revealed.
		if j < d-1 {
			rj, err := v.Challenge()
			if err != nil {
				return tr, err
			}
			tr.Challenges = append(tr.Challenges, rj)
			if err := p.Fold(rj); err != nil {
				return tr, err
			}
		}
	}
	return tr, nil
}
