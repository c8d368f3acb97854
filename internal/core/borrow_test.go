package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// openRecorder keeps the message that opened the sum-check: Open's, or,
// for the two-phase frequency-based protocol, the response to the empty
// challenge that ends the heavy-hitter phase.
type openRecorder struct {
	inner   ProverSession
	opening Msg
}

func (r *openRecorder) Open() (Msg, error) {
	m, err := r.inner.Open()
	r.opening = cloneMsg(m)
	return m, err
}

func (r *openRecorder) Step(ch Msg) (Msg, error) {
	m, err := r.inner.Step(ch)
	if len(ch.Elems) == 0 {
		r.opening = cloneMsg(m)
	}
	return m, err
}

// scTotal is the reference oracle for an opening's claim: a separate
// Total pass over the same tables.
func scTotal(t *testing.T, cfg sumcheck.Config, tables ...[]field.Elem) field.Elem {
	t.Helper()
	p, err := sumcheck.NewProver(cfg, tables...)
	if err != nil {
		t.Fatal(err)
	}
	return p.Total()
}

// borrowRun is one protocol conversation ready to play, with the
// caller-owned slices its prover borrows and the reference claims.
type borrowRun struct {
	p      ProverSession
	v      VerifierSession
	inputs [][]field.Elem
	counts []int64
	totals func() []field.Elem // evaluated after the conversation
}

// TestOpenBorrowsTables runs every sum-check-backed protocol at workers 0
// and 2 over a universe wide enough to split the in-place reads, and
// checks that the conversation is accepted, leaves the prover's input
// tables bit-identical, and opens with claims equal to Total.
func TestOpenBorrowsTables(t *testing.T) {
	const u = 1 << 13
	rng := field.NewSplitMix64(71)
	upsA := stream.UniformDeltas(u, 4000, rng)
	upsB := stream.UniformDeltas(u, 4000, rng)
	unit := stream.UnitIncrements(u, 2000, rng)

	fk := func(k int) func(t *testing.T, workers int) borrowRun {
		return func(t *testing.T, workers int) borrowRun {
			proto, err := NewFk(f61, u, k)
			if err != nil {
				t.Fatal(err)
			}
			proto.Workers = workers
			table := buildElems(t, upsA, u)
			p, err := proto.NewProverFromTable(table)
			if err != nil {
				t.Fatal(err)
			}
			v := proto.NewVerifier(field.NewSplitMix64(72))
			observeAll(t, v, upsA)
			return borrowRun{p: p, v: v, inputs: [][]field.Elem{table}, totals: func() []field.Elem {
				return []field.Elem{scTotal(t, proto.scConfig(), table)}
			}}
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T, workers int) borrowRun
	}{
		{"f2", fk(2)},
		{"f3", fk(3)},
		{"innerproduct", func(t *testing.T, workers int) borrowRun {
			proto, err := NewInnerProduct(f61, u)
			if err != nil {
				t.Fatal(err)
			}
			proto.Workers = workers
			p, v := proto.NewProver(), proto.NewVerifier(field.NewSplitMix64(73))
			for _, up := range upsA {
				if err := p.ObserveA(up); err != nil {
					t.Fatal(err)
				}
				if err := v.ObserveA(up); err != nil {
					t.Fatal(err)
				}
			}
			for _, up := range upsB {
				if err := p.ObserveB(up); err != nil {
					t.Fatal(err)
				}
				if err := v.ObserveB(up); err != nil {
					t.Fatal(err)
				}
			}
			return borrowRun{p: p, v: v, inputs: p.tables[:], totals: func() []field.Elem {
				return []field.Elem{scTotal(t, proto.scConfig(), p.tables[0], p.tables[1])}
			}}
		}},
		{"rangesum", func(t *testing.T, workers int) borrowRun {
			proto, err := NewRangeSum(f61, u)
			if err != nil {
				t.Fatal(err)
			}
			proto.Workers = workers
			table := buildElems(t, upsA, u)
			p, err := proto.NewProverFromTable(table)
			if err != nil {
				t.Fatal(err)
			}
			v := proto.NewVerifier(field.NewSplitMix64(74))
			observeAll(t, v, upsA)
			const qL, qR = 1000, 6000
			if err := p.SetQuery(qL, qR); err != nil {
				t.Fatal(err)
			}
			if err := v.SetQuery(qL, qR); err != nil {
				t.Fatal(err)
			}
			return borrowRun{p: p, v: v, inputs: [][]field.Elem{table}, totals: func() []field.Elem {
				indicator := make([]field.Elem, u)
				for i := qL; i <= qR; i++ {
					indicator[i] = 1
				}
				return []field.Elem{scTotal(t, proto.scConfig(), table, indicator)}
			}}
		}},
		{"f0", func(t *testing.T, workers int) borrowRun {
			proto, err := NewF0(f61, u, 0)
			if err != nil {
				t.Fatal(err)
			}
			proto.Workers = workers
			counts, err := stream.Apply(unit, u)
			if err != nil {
				t.Fatal(err)
			}
			p, err := proto.NewProverFromCounts(counts, int64(len(unit)))
			if err != nil {
				t.Fatal(err)
			}
			v := proto.NewVerifier(field.NewSplitMix64(75))
			observeAll(t, v, unit)
			return borrowRun{p: p, v: v, counts: counts, totals: func() []field.Elem {
				cfg, table, err := p.residual()
				if err != nil {
					t.Fatal(err)
				}
				return []field.Elem{scTotal(t, cfg, table)}
			}}
		}},
		{"multifk", func(t *testing.T, workers int) borrowRun {
			proto, err := NewMultiFk(f61, u, []int{2, 3})
			if err != nil {
				t.Fatal(err)
			}
			proto.Workers = workers
			p, v := proto.NewProver(), proto.NewVerifier(field.NewSplitMix64(76))
			for slot, ups := range [][]stream.Update{upsA, upsB} {
				for _, up := range ups {
					if err := p.Observe(slot, up); err != nil {
						t.Fatal(err)
					}
					if err := v.Observe(slot, up); err != nil {
						t.Fatal(err)
					}
				}
			}
			return borrowRun{p: p, v: v, inputs: p.tables, totals: func() []field.Elem {
				return []field.Elem{scTotal(t, proto.cfg(0), p.tables[0]), scTotal(t, proto.cfg(1), p.tables[1])}
			}}
		}},
		{"split-s2", func(t *testing.T, workers int) borrowRun {
			table := buildElems(t, upsA, u)
			s := newSplitFk(t, u, 2, 2, workers, table, 9)
			proto, err := NewFk(f61, u, 2)
			if err != nil {
				t.Fatal(err)
			}
			v := proto.NewVerifier(field.NewSplitMix64(77))
			observeAll(t, v, upsA)
			return borrowRun{p: s, v: v, inputs: [][]field.Elem{table}, totals: func() []field.Elem {
				return []field.Elem{scTotal(t, proto.scConfig(), table)}
			}}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/w=%d", tc.name, workers), func(t *testing.T) {
				run := tc.build(t, workers)
				inputs := make([][]field.Elem, len(run.inputs))
				for i, in := range run.inputs {
					inputs[i] = slices.Clone(in)
				}
				counts := slices.Clone(run.counts)
				rec := &openRecorder{inner: run.p}
				if _, err := Run(rec, run.v); err != nil {
					t.Fatalf("honest conversation rejected: %v", err)
				}
				for i := range inputs {
					if !slices.Equal(run.inputs[i], inputs[i]) {
						t.Fatalf("input table %d modified by the conversation", i)
					}
				}
				if !slices.Equal(run.counts, counts) {
					t.Fatal("input counts modified by the conversation")
				}
				want := run.totals()
				if got := rec.opening.Elems[:len(want)]; !slices.Equal(got, want) {
					t.Fatalf("opening claims %v ≠ Total %v", got, want)
				}
			})
		}
	}
}

// TestObserveAfterOpenRefused: a streaming prover's sum-check reads its
// tables in place, so every Observe entry point refuses updates once Open
// has run, and the refused update leaves the tables untouched.
func TestObserveAfterOpenRefused(t *testing.T) {
	const u = 64
	up := stream.Update{Index: 5, Delta: 3}
	t.Run("fk", func(t *testing.T) {
		proto, err := NewFk(f61, u, 2)
		if err != nil {
			t.Fatal(err)
		}
		p := proto.NewProver()
		if err := p.Observe(up); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open(); err != nil {
			t.Fatal(err)
		}
		before := slices.Clone(p.table)
		if err := p.Observe(up); !errors.Is(err, errObserveAfterOpen) {
			t.Fatalf("Observe after Open: %v", err)
		}
		if !slices.Equal(p.table, before) {
			t.Fatal("refused update reached the table")
		}
	})
	t.Run("rangesum", func(t *testing.T) {
		proto, err := NewRangeSum(f61, u)
		if err != nil {
			t.Fatal(err)
		}
		p := proto.NewProver()
		if err := p.Observe(up); err != nil {
			t.Fatal(err)
		}
		if err := p.SetQuery(0, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open(); err != nil {
			t.Fatal(err)
		}
		before := slices.Clone(p.table)
		if err := p.Observe(up); !errors.Is(err, errObserveAfterOpen) {
			t.Fatalf("Observe after Open: %v", err)
		}
		if !slices.Equal(p.table, before) {
			t.Fatal("refused update reached the table")
		}
	})
	t.Run("innerproduct", func(t *testing.T) {
		proto, err := NewInnerProduct(f61, u)
		if err != nil {
			t.Fatal(err)
		}
		p := proto.NewProver()
		if err := p.ObserveA(up); err != nil {
			t.Fatal(err)
		}
		if err := p.ObserveB(up); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open(); err != nil {
			t.Fatal(err)
		}
		beforeA, beforeB := slices.Clone(p.tables[0]), slices.Clone(p.tables[1])
		if err := p.ObserveA(up); !errors.Is(err, errObserveAfterOpen) {
			t.Fatalf("ObserveA after Open: %v", err)
		}
		if err := p.ObserveB(up); !errors.Is(err, errObserveAfterOpen) {
			t.Fatalf("ObserveB after Open: %v", err)
		}
		if !slices.Equal(p.tables[0], beforeA) || !slices.Equal(p.tables[1], beforeB) {
			t.Fatal("refused update reached the tables")
		}
	})
	t.Run("multifk", func(t *testing.T) {
		proto, err := NewMultiFk(f61, u, []int{2, 3})
		if err != nil {
			t.Fatal(err)
		}
		p := proto.NewProver()
		if err := p.Observe(1, up); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Open(); err != nil {
			t.Fatal(err)
		}
		before := slices.Clone(p.tables[1])
		if err := p.Observe(1, up); !errors.Is(err, errObserveAfterOpen) {
			t.Fatalf("Observe after Open: %v", err)
		}
		if !slices.Equal(p.tables[1], before) {
			t.Fatal("refused update reached the table")
		}
	})
}
