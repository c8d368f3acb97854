package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// fld is the field every server, router and verifier in the benchmark
// agrees on; clients pin its modulus for fetched proofs.
var fld = field.Mersenne()

// wireBatch is the number of updates wire.Client.Ingest sends per frame;
// each non-empty frame is one ingest batch and bumps the dataset version.
const wireBatch = 4096

// query is one query kind with its parameters.
type query struct {
	kind   engine.QueryKind
	params engine.QueryParams
}

var f2 = query{kind: engine.QuerySelfJoinSize}

// held is the benchmark's own copy of one dataset: the counts it checks
// every answer against and the updates its verifiers observe.
type held struct {
	u       uint64
	counts  []int64
	ups     []stream.Update
	f2      field.Elem // Σ counts², maintained per update
	version uint64     // ingest batches the server applied
}

func newHeld(u uint64) *held { return &held{u: u, counts: make([]int64, u)} }

func square(c int64) field.Elem {
	e := fld.FromInt64(c)
	return fld.Mul(e, e)
}

// apply records updates the server acknowledged in one Client.Ingest
// call.
func (h *held) apply(ups []stream.Update) {
	for _, up := range ups {
		c := h.counts[up.Index]
		h.f2 = fld.Sub(h.f2, square(c))
		c += up.Delta
		h.f2 = fld.Add(h.f2, square(c))
		h.counts[up.Index] = c
	}
	h.ups = append(h.ups, ups...)
	h.version += uint64((len(ups) + wireBatch - 1) / wireBatch)
}

// reset empties the held copy.
func (h *held) reset() {
	for _, up := range h.ups {
		h.counts[up.Index] = 0
	}
	h.ups, h.f2, h.version = h.ups[:0], 0, 0
}

// nonzero returns the held counts as one ingest batch in columns.
func (h *held) nonzero() (idx []uint64, deltas []int64) {
	for i, c := range h.counts {
		if c != 0 {
			idx = append(idx, uint64(i))
			deltas = append(deltas, c)
		}
	}
	return idx, deltas
}

// answer computes q's answer from the held copy.
func (h *held) answer(q query) field.Elem {
	switch q.kind {
	case engine.QuerySelfJoinSize:
		return h.f2
	case engine.QueryRangeSum:
		var s int64
		for _, c := range h.counts[q.params.A : q.params.B+1] {
			s += c
		}
		return fld.FromInt64(s)
	}
	panic(fmt.Sprintf("perfbench: no held answer for query kind %d", q.kind))
}

// certified reads the answer an accepted verifier certified.
func certified(v core.VerifierSession) (field.Elem, error) {
	switch v := v.(type) {
	case *core.FkVerifier:
		return v.Result()
	case *core.RangeSumVerifier:
		return v.Result()
	}
	return 0, fmt.Errorf("perfbench: no result for verifier %T", v)
}

// genUpdates draws n updates with indices uniform over [0,u) and deltas
// in [1,8].
func genUpdates(rng *field.SplitMix64, u uint64, n int) []stream.Update {
	ups := make([]stream.Update, n)
	for i := range ups {
		ups[i] = stream.Update{Index: rng.Uint64() % u, Delta: int64(rng.Uint64()%8) + 1}
	}
	return ups
}

// genRange draws a RANGE-SUM query over [0,u).
func genRange(rng *field.SplitMix64, u uint64) query {
	a, b := rng.Uint64()%u, rng.Uint64()%u
	if a > b {
		a, b = b, a
	}
	return query{kind: engine.QueryRangeSum, params: engine.QueryParams{A: a, B: b}}
}

// newRNG derives an independent generator for one purpose from the
// run's seed.
func newRNG(seed uint64, purpose uint64) *field.SplitMix64 {
	return field.NewSplitMix64(seed*0x9E3779B97F4A7C15 ^ purpose)
}
