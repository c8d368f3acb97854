package sumcheck

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
	"repro/internal/stream"
)

// openAndRun plays one conversation the way every protocol session does:
// OpenMessage supplies the claim and round 1, then Fold/RoundMessage
// alternate. Total, taken beforehand, is the reference oracle for the
// claim. It returns the verifier's verdict.
func openAndRun(t *testing.T, cfg Config, rng field.RNG, tables ...[]field.Elem) error {
	t.Helper()
	pt := lde.RandomPoint(cfg.Field, cfg.Params, rng)
	vals := make([]field.Elem, len(tables))
	for i, tab := range tables {
		v, err := lde.EvalDense(pt, tab)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	p, err := NewProver(cfg, tables...)
	if err != nil {
		t.Fatal(err)
	}
	total := p.Total()
	claim, msg, err := p.OpenMessage()
	if err != nil {
		t.Fatal(err)
	}
	if claim != total {
		t.Fatalf("OpenMessage claim %d ≠ Total %d", claim, total)
	}
	v, err := NewVerifier(cfg, pt.R, claim, cfg.Combiner.Apply(cfg.Field, vals))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if err := v.Receive(msg); err != nil {
			return err
		}
		if v.Done() {
			return nil
		}
		r, err := v.Challenge()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Fold(r); err != nil {
			t.Fatal(err)
		}
		if msg, err = p.RoundMessage(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBorrowedTablesUnchanged pins the borrowed-table contract: for every
// combiner shape, branching factor and worker count, a full conversation
// leaves the caller's tables bit-identical, OpenMessage's claim equals
// Total, and the verifier accepts. Universes exceed two parallel grains so
// workers=2 really splits the in-place reads.
func TestBorrowedTablesUnchanged(t *testing.T) {
	p2, err := lde.NewParams(2, 13)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := lde.NewParams(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(61)
	table := buildTable(t, f61, stream.UniformDeltas(p2.U, 5000, rng), p2.U)
	other := buildTable(t, f61, stream.UniformDeltas(p2.U, 5000, rng), p2.U)
	indicator := make([]field.Elem, p2.U)
	for i := 1000; i <= 6000; i++ {
		indicator[i] = 1
	}
	small := buildTable(t, f61, stream.UniformDeltas(p2.U, 3000, rng), p2.U)
	h := poly.Poly{3, 0, 5, 1} // h̃(v) = v³ + 5v² + 3
	wide := buildTable(t, f61, stream.UniformDeltas(p4.U, 5000, rng), p4.U)
	cases := []struct {
		name     string
		params   lde.Params
		combiner Combiner
		tables   [][]field.Elem
	}{
		{"f2", p2, Power{K: 2}, [][]field.Elem{table}},
		{"f3", p2, Power{K: 3}, [][]field.Elem{table}},
		{"innerproduct", p2, Product{}, [][]field.Elem{table, other}},
		{"rangesum", p2, Product{}, [][]field.Elem{table, indicator}},
		{"polyfn", p2, PolyFn{H: h, MinDegree: 3}, [][]field.Elem{small}},
		{"f2-ell4", p4, Power{K: 2}, [][]field.Elem{wide}},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/w=%d", tc.name, workers), func(t *testing.T) {
				before := make([][]field.Elem, len(tc.tables))
				for i, tab := range tc.tables {
					before[i] = slices.Clone(tab)
				}
				cfg := Config{Field: f61, Params: tc.params, Combiner: tc.combiner, Workers: workers}
				if err := openAndRun(t, cfg, field.NewSplitMix64(62), tc.tables...); err != nil {
					t.Fatalf("honest conversation rejected: %v", err)
				}
				for i := range tc.tables {
					if !slices.Equal(tc.tables[i], before[i]) {
						t.Fatalf("table %d modified by the conversation", i)
					}
				}
			})
		}
	}
}

// TestPartialProversBorrowSlices runs an S=2 split whose slice provers
// borrow the two halves of one backing table: each writes only its own
// fold buffers, so the shared table is untouched, and the summed
// OpenMessage claims equal the whole-table Total.
func TestPartialProversBorrowSlices(t *testing.T) {
	params, err := lde.NewParams(2, 14)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(63)
	table := buildTable(t, f61, stream.UniformDeltas(params.U, 5000, rng), params.U)
	before := slices.Clone(table)
	challenges := f61.RandVec(rng, params.D)
	for _, combiner := range []Combiner{Power{K: 2}, Power{K: 3}} {
		for _, workers := range []int{0, 2} {
			cfg := Config{Field: f61, Params: params, Combiner: combiner, Workers: workers}
			ref, err := NewProver(cfg, table)
			if err != nil {
				t.Fatal(err)
			}
			half := params.U / 2
			var claim field.Elem
			parts := make([]*Prover, 2)
			for k := range parts {
				lo := uint64(k) * half
				if parts[k], err = NewPartialProver(cfg, lo, lo+half, table[lo:lo+half]); err != nil {
					t.Fatal(err)
				}
				c, _, err := parts[k].OpenMessage()
				if err != nil {
					t.Fatal(err)
				}
				claim = f61.Add(claim, c)
			}
			if total := ref.Total(); claim != total {
				t.Fatalf("%v w=%d: summed partial claims %d ≠ Total %d", combiner, workers, claim, total)
			}
			hd := parts[0].cfg.Params.D
			for j := 0; j < hd; j++ {
				for _, p := range parts {
					if err := p.Fold(challenges[j]); err != nil {
						t.Fatal(err)
					}
					if j < hd-1 {
						if _, err := p.RoundMessage(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for k, p := range parts {
				if _, err := p.Leaves(); err != nil {
					t.Fatalf("slice %d: %v", k, err)
				}
			}
			if !slices.Equal(table, before) {
				t.Fatalf("%v w=%d: shared table modified by the slice provers", combiner, workers)
			}
		}
	}
}

// TestOpenMessageOnlyOpens: OpenMessage is round 1's message and nothing
// later.
func TestOpenMessageOnlyOpens(t *testing.T) {
	params, err := lde.NewParams(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	p, err := NewProver(cfg, make([]field.Elem, params.U))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.OpenMessage(); err != nil {
		t.Fatal(err)
	}
	if err := p.Fold(5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.OpenMessage(); err == nil {
		t.Error("OpenMessage accepted after the first fold")
	}
}

// TestConversationAllocatesLessThanOneTable bounds an F2 prover's whole
// conversation at log u = 16 — construction, opening, every fold and
// message — below one table's worth of bytes (U·8). Borrowing the input
// and folding into two reused buffers costs about 0.75·U·8; copying the
// table and allocating a fresh table per fold costs about 2·U·8.
func TestConversationAllocatesLessThanOneTable(t *testing.T) {
	params, err := lde.NewParams(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(64)
	table := buildTable(t, f61, stream.UniformDeltas(params.U, 5000, rng), params.U)
	challenges := f61.RandVec(rng, params.D)
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := NewProver(cfg, table)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := p.OpenMessage(); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < params.D-1; j++ {
				if err := p.Fold(challenges[j]); err != nil {
					b.Fatal(err)
				}
				if _, err := p.RoundMessage(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	limit := int64(params.U) * 8
	if got := res.AllocedBytesPerOp(); got >= limit {
		t.Fatalf("conversation allocates %d B, want < %d (one table)", got, limit)
	}
}
