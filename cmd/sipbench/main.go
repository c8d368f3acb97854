// Command sipbench regenerates the experimental series of Cormode, Thaler
// & Yi (VLDB 2011), §5 — one experiment per figure plus the in-text
// claims — printing rows that correspond to the paper's plots.
//
// Usage:
//
//	sipbench -experiment fig2a          # verifier stream time vs n
//	sipbench -experiment fig2b          # prover time vs u
//	sipbench -experiment fig2c          # space & communication vs u
//	sipbench -experiment fig3a          # SUB-VECTOR prover/verifier time
//	sipbench -experiment fig3b          # SUB-VECTOR space & communication
//	sipbench -experiment tamper         # §5 robustness: all tampering rejected
//	sipbench -experiment branching      # §3.1 footnote-1 ℓ/d ablation
//	sipbench -experiment gkr            # §3 remark: GKR vs native F2
//	sipbench -experiment freq           # §6.2 frequency-based functions
//	sipbench -experiment ipv6           # §5 closing extrapolation
//	sipbench -experiment mux            # multiplexed conversations: k overlapped
//	                                    # vs k serial on one connection
//	sipbench -experiment fanout         # proof-cache fan-out: k verifiers of one
//	                                    # query, cached replay vs interactive
//	sipbench -experiment shard          # shard scaling: concurrent queries over
//	                                    # S engine processes behind the router
//	sipbench -experiment splitshard     # split-universe scaling: one dataset
//	                                    # sliced across S engines
//	sipbench -experiment all
//
// -maxlogu bounds the sweeps (default 20 multi-round, 16 one-round; the
// one-round prover is Θ(u^{3/2}) and dominates quickly, exactly as in
// Figure 2(b)).
//
// -workers sets the prover's worker-pool size (default: all cores; 1 runs
// the serial prover). Transcripts, space, and communication are identical
// for every value — only prover wall-clock time changes.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/gkrbench"
	"repro/internal/harness"
	"repro/internal/shard"
	"repro/internal/stream"
	"repro/internal/wire"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (fig2a fig2b fig2c fig3a fig3b tamper branching gkr freq ipv6 mux fanout shard splitshard all)")
	maxLogU := flag.Int("maxlogu", 20, "largest log2(u) for multi-round sweeps")
	maxLogUOne := flag.Int("maxlogu1", 16, "largest log2(u) for one-round sweeps (prover is Θ(u^{3/2}))")
	span := flag.Uint64("span", 1000, "SUB-VECTOR query span (the paper uses 1000)")
	seed := flag.Uint64("seed", 1, "workload seed")
	workers := flag.Int("workers", runtime.NumCPU(), "prover worker-pool size (1 = serial; transcripts are identical for every value)")
	maxK := flag.Int("maxk", 1000, "largest verifier count for the fanout experiment")
	flag.Parse()

	f := field.Mersenne()
	run := func(name string, fn func(field.Field) error) {
		switch *experiment {
		case name, "all":
			fmt.Printf("== %s ==\n", name)
			if err := fn(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
	}

	run("fig2a", func(f field.Field) error { return fig2a(f, *maxLogU, *maxLogUOne, *seed, *workers) })
	run("fig2b", func(f field.Field) error { return fig2b(f, *maxLogU, *maxLogUOne, *seed, *workers) })
	run("fig2c", func(f field.Field) error { return fig2c(f, *maxLogU, *maxLogUOne, *seed, *workers) })
	run("fig3a", func(f field.Field) error { return fig3(f, *maxLogU, *span, *seed, *workers, true) })
	run("fig3b", func(f field.Field) error { return fig3(f, *maxLogU, *span, *seed, *workers, false) })
	run("tamper", func(f field.Field) error { return tamper(f, *seed) })
	run("branching", func(f field.Field) error { return branching(f, *seed) })
	run("gkr", func(f field.Field) error { return gkr(f, *seed, *workers) })
	run("freq", func(f field.Field) error { return freq(f, *seed, *workers) })
	run("ipv6", func(f field.Field) error { return ipv6(f, *seed, *workers) })
	run("mux", func(f field.Field) error { return mux(f, *seed) })
	run("fanout", func(f field.Field) error { return fanout(f, *seed, *maxK) })
	run("shard", func(f field.Field) error { return shardScale(f, *seed) })
	run("splitshard", func(f field.Field) error { return splitShardScale(f, *seed) })
}

// shard: horizontal scaling through the router — D datasets pinned
// round-robin across S engine processes, each process capped at a
// memory budget that holds only two datasets' field tables. One engine
// under the working set thrashes its residency governor (every query
// round evicts and rehydrates); sharding scales the aggregate budget
// with S, so at S = 4 the whole working set is resident. The direct row
// is the same batch against one engine with no router, so the S = 1
// delta is the router's proxying overhead.
func shardScale(f field.Field, seed uint64) error {
	const logu = 16
	const nDatasets = 8
	const rounds = 3
	u := uint64(1) << logu
	cost, err := engine.TableCost(u)
	if err != nil {
		return err
	}
	budget := 2*cost + cost/2
	fmt.Printf("Shard scaling: %d datasets, %d rounds of one concurrent F2 query each, u = 2^%d, per-engine budget = 2 datasets\n", nDatasets, rounds, logu)

	dsName := func(i int) string { return fmt.Sprintf("ds-%d", i) }
	streams := make([][]stream.Update, nDatasets)
	for i := range streams {
		streams[i] = stream.UnitIncrements(u, int(2*u), field.NewSplitMix64(seed+uint64(i)))
	}
	newVerifier := func(i int) (*core.FkVerifier, error) {
		proto, err := core.NewSelfJoinSize(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(field.NewSplitMix64(seed + uint64(100+i)))
		if err := v.ObserveBatch(streams[i], runtime.NumCPU()); err != nil {
			return nil, err
		}
		return v, nil
	}

	// ingest loads every dataset through addr; queryAll runs one query
	// per dataset concurrently (each on its own connection — an OPEN pins
	// a connection to its dataset's shard) and returns the wall clock.
	ingest := func(addr string) error {
		for i := 0; i < nDatasets; i++ {
			cl, err := wire.Dial(addr)
			if err != nil {
				return err
			}
			if _, err := cl.OpenDataset(dsName(i), u); err == nil {
				_, err = cl.Ingest(streams[i])
			}
			cl.Close()
			if err != nil {
				return err
			}
		}
		return nil
	}
	queryAll := func(addr string) (time.Duration, error) {
		// Verifier sessions are single-conversation: one per (round, dataset),
		// all built (and fed the stream) before the clock starts.
		vs := make([][]*core.FkVerifier, rounds)
		cls := make([]*wire.Client, nDatasets)
		for round := range vs {
			vs[round] = make([]*core.FkVerifier, nDatasets)
			for i := range vs[round] {
				var err error
				if vs[round][i], err = newVerifier(i); err != nil {
					return 0, err
				}
			}
		}
		for i := range cls {
			var err error
			if cls[i], err = wire.Dial(addr); err != nil {
				return 0, err
			}
			defer cls[i].Close()
			if _, err = cls[i].OpenDataset(dsName(i), u); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		for round := 0; round < rounds; round++ {
			errs := make(chan error, nDatasets)
			for i := 0; i < nDatasets; i++ {
				go func(round, i int) {
					_, err := cls[i].Query(wire.QuerySelfJoinSize, wire.QueryParams{}, vs[round][i])
					errs <- err
				}(round, i)
			}
			for i := 0; i < nDatasets; i++ {
				if err := <-errs; err != nil {
					return 0, err
				}
			}
		}
		return time.Since(t0), nil
	}

	var base time.Duration
	fmt.Printf("%8s %14s %10s\n", "shards", "wall", "speedup")
	for _, S := range []int{0, 1, 2, 4} {
		var addr string
		var cleanup []func()
		newServer := func() (string, error) {
			dir, err := os.MkdirTemp("", "sipbench-shard-*")
			if err != nil {
				return "", err
			}
			cleanup = append(cleanup, func() { os.RemoveAll(dir) })
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return "", err
			}
			srv := &wire.Server{F: f, Workers: 1, MemBudget: budget, DataDir: dir}
			go func() { _ = srv.Serve(ln) }()
			cleanup = append(cleanup, func() { srv.Close() })
			return ln.Addr().String(), nil
		}
		if S == 0 {
			if addr, err = newServer(); err != nil {
				return err
			}
		} else {
			tbl := &shard.Table{Routes: map[string]string{}}
			for s := 0; s < S; s++ {
				saddr, err := newServer()
				if err != nil {
					return err
				}
				tbl.Shards = append(tbl.Shards, shard.ShardInfo{Name: fmt.Sprintf("s%d", s), Addr: saddr})
			}
			for i := 0; i < nDatasets; i++ {
				tbl.Routes[dsName(i)] = fmt.Sprintf("s%d", i%S)
			}
			r, err := shard.NewRouter(tbl)
			if err != nil {
				return err
			}
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go func() { _ = r.Serve(rln) }()
			cleanup = append(cleanup, func() { r.Close() })
			addr = rln.Addr().String()
		}
		err = ingest(addr)
		var wall time.Duration
		if err == nil {
			wall, err = queryAll(addr)
		}
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%d", S)
		if S == 0 {
			label = "direct"
			base = wall
		}
		fmt.Printf("%8s %14s %9.2fx\n", label, wall.Round(time.Microsecond), float64(base)/float64(wall))
	}
	return nil
}

// splitshard: vertical scaling of ONE dataset through the split-universe
// router — the whole universe lives on S engine processes (one slice
// each, one worker each), and each Fiat–Shamir proof generation runs as
// S partial provers folded into one transcript by the router. Prover
// work is linear in resident table size, so S slices cut each shard's
// share to U/S and the shards compute their partials concurrently; the
// metric is proof-generation wall clock (each round bumps the dataset
// version, so every fetch is a cache miss — one full prover run). The
// direct row is the same dataset on one engine with no router: the
// S = 1 delta is the price of the aggregation seam itself (one extra
// hop per sum-check round plus the router's fold), and S = 2, 4 show
// the cross-process speedup — bounded by physical cores, since on a
// single-CPU host the concurrent slice provers serialize and the curve
// stays flat at the S = 1 wall. (S = 1 beating direct is real, not the
// seam: the split path samples its Fiat-Shamir challenges directly via
// core.SumcheckChallenges, while the engine's whole-proof path derives
// them by replaying a verifier.) The proof bytes are bit-identical in
// every row — the equality tests pin that; this table prices it.
func splitShardScale(f field.Field, seed uint64) error {
	const logu = 22
	const rounds = 3
	u := uint64(1) << logu
	const n = 1 << 16
	ups := stream.UnitIncrements(u, n, field.NewSplitMix64(seed))
	bump := stream.UnitIncrements(u, 1, field.NewSplitMix64(seed+999))
	fmt.Printf("Split-universe scaling: F2 proof generation at u = 2^%d across S single-worker engines, %d proofs\n", logu, rounds)
	fmt.Printf("(host has %d CPU(s); slice provers run concurrently, so expect speedup over the S=1 row of about min(S, CPUs))\n", runtime.NumCPU())

	var base time.Duration
	fmt.Printf("%8s %14s %10s\n", "slices", "wall", "speedup")
	for _, S := range []int{0, 1, 2, 4} {
		var addr string
		var cleanup []func()
		newServer := func() (string, error) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return "", err
			}
			srv := &wire.Server{F: f, Workers: 1}
			go func() { _ = srv.Serve(ln) }()
			cleanup = append(cleanup, func() { srv.Close() })
			return ln.Addr().String(), nil
		}
		var err error
		if S == 0 {
			if addr, err = newServer(); err != nil {
				return err
			}
		} else {
			sp := &shard.SplitSpec{Slices: S}
			tbl := &shard.Table{Splits: map[string]*shard.SplitSpec{"huge": sp}}
			for s := 0; s < S; s++ {
				saddr, err := newServer()
				if err != nil {
					return err
				}
				name := fmt.Sprintf("s%d", s)
				tbl.Shards = append(tbl.Shards, shard.ShardInfo{Name: name, Addr: saddr})
				sp.Owners = append(sp.Owners, name)
			}
			r, err := shard.NewRouter(tbl)
			if err != nil {
				return err
			}
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			go func() { _ = r.Serve(rln) }()
			cleanup = append(cleanup, func() { r.Close() })
			addr = rln.Addr().String()
		}

		wall, err := func() (time.Duration, error) {
			cl, err := wire.Dial(addr)
			if err != nil {
				return 0, err
			}
			defer cl.Close()
			if _, err := cl.OpenDataset("huge", u); err != nil {
				return 0, err
			}
			if _, err := cl.Ingest(ups); err != nil {
				return 0, err
			}
			// Warm the path once (table materialization, first-connection
			// costs), then time rounds of version-bumped proof misses.
			if _, err := cl.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 0); err != nil {
				return 0, err
			}
			t0 := time.Now()
			for round := 0; round < rounds; round++ {
				if _, err := cl.Ingest(bump); err != nil {
					return 0, err
				}
				if _, err := cl.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 0); err != nil {
					return 0, err
				}
			}
			return time.Since(t0), nil
		}()
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
		if err != nil {
			return err
		}
		label := fmt.Sprintf("%d", S)
		if S == 0 {
			label = "direct"
			base = wall
		}
		fmt.Printf("%8s %14s %9.2fx\n", label, wall.Round(time.Microsecond), float64(base)/float64(wall))
	}
	return nil
}

// fanout: the Fiat–Shamir proof cache under verifier fan-out — k
// verifiers of one query over one dataset at u = 2^18, interactive
// conversations (the server reruns its prover per verifier) versus
// cached replay (the server generates one posted proof, every further
// request is a cache hit). Both columns exclude stream observation:
// every verifier fingerprints the stream as it flows by, whichever way
// it later checks the answer. The cached column times the first fetch
// (the miss — the one prover run), then every further fetch plus each
// verifier's offline replay of the posted transcript; only the
// verifiers' untimed pre-seeding is shared with the interactive arm.
func fanout(f field.Field, seed uint64, maxK int) error {
	const logu = 18
	u := uint64(1) << logu
	const n = 1 << 14
	fmt.Printf("Proof-cache fan-out: k verifiers of one F2 query, u = 2^%d, n = %d\n", logu, n)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &wire.Server{F: f, Workers: 1} // one core of prover: the resource the cache conserves
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.FieldModulus = f.Modulus()

	kind, params := wire.QuerySelfJoinSize, wire.QueryParams{}
	fmt.Printf("%6s %14s %14s %10s %12s\n", "k", "interactive", "cached", "speedup", "hits/misses")
	for _, k := range []int{1, 10, 100, 1000} {
		if k > maxK {
			break
		}
		// A fresh dataset per k keeps the cache accounting exact: one
		// miss generates the round's proof, every other fetch must hit.
		name := fmt.Sprintf("fanout%d", k)
		ups := stream.UnitIncrements(u, n, field.NewSplitMix64(seed+uint64(k)))
		if _, err := cl.OpenDataset(name, u); err != nil {
			return err
		}
		if _, err := cl.Ingest(ups); err != nil {
			return err
		}

		seedVerifier := func(rng field.RNG) (*core.FkVerifier, error) {
			proto, err := core.NewSelfJoinSize(f, u)
			if err != nil {
				return nil, err
			}
			v := proto.NewVerifier(rng)
			return v, v.ObserveBatch(ups, runtime.NumCPU())
		}
		ivs := make([]*core.FkVerifier, k)
		for i := range ivs {
			// Interactive verifiers draw secret randomness each.
			if ivs[i], err = seedVerifier(field.NewSplitMix64(seed + uint64(2000+i))); err != nil {
				return err
			}
		}

		t0 := time.Now()
		for i := 0; i < k; i++ {
			if _, err := cl.Query(kind, params, ivs[i]); err != nil {
				return err
			}
		}
		interactive := time.Since(t0)

		before := srv.Stats().ProofCache
		t0 = time.Now()
		pf0, err := cl.FetchProof(kind, params, 0)
		if err != nil {
			return err
		}
		missTime := time.Since(t0)

		// Untimed: seed the k offline verifiers. Every one derives the
		// same challenges from the posted binding — that is the point:
		// one transcript serves them all.
		binding := pf0.Binding
		cvs := make([]*core.FkVerifier, k)
		for i := range cvs {
			if cvs[i], err = seedVerifier(binding.RNG()); err != nil {
				return err
			}
		}

		t0 = time.Now()
		if err := binding.Verify(pf0, cvs[0]); err != nil {
			return fmt.Errorf("k=%d: offline verification rejected the posted proof: %v", k, err)
		}
		for i := 1; i < k; i++ {
			pf, err := cl.FetchProof(kind, params, binding.Version)
			if err != nil {
				return err
			}
			if err := binding.Verify(pf, cvs[i]); err != nil {
				return fmt.Errorf("k=%d verifier %d: %v", k, i, err)
			}
		}
		cached := missTime + time.Since(t0)
		st := srv.Stats().ProofCache
		hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
		if misses != 1 || hits < uint64(k-1) {
			return fmt.Errorf("k=%d: %d hits / %d misses, want ≥%d / 1", k, hits, misses, k-1)
		}
		fmt.Printf("%6d %14s %14s %9.2fx %9d/%d\n", k,
			interactive.Round(time.Microsecond), cached.Round(time.Microsecond),
			float64(interactive)/float64(cached), hits, misses)
	}
	return nil
}

// mux: the wire layer's multiplexed conversations — k F2 query
// conversations overlapped on one connection versus the same k run
// serially, over a real loopback socket. Each conversation runs in its
// own server goroutine; on c cores expect up to min(k, c)× speedup, and
// parity on one core.
func mux(f field.Field, seed uint64) error {
	const logu = 16
	u := uint64(1) << logu
	fmt.Printf("Multiplexed conversations: k overlapped vs k serial F2 queries, one connection, u = 2^%d\n", logu)
	ups := stream.UnitIncrements(u, int(2*u), field.NewSplitMix64(seed))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &wire.Server{F: f, Workers: 1} // single-threaded provers: only the overlap parallelizes
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer cl.Close()
	if _, err := cl.OpenDataset("mux", u); err != nil {
		return err
	}
	if _, err := cl.Ingest(ups); err != nil {
		return err
	}

	newVerifier := func(vseed uint64) (*core.FkVerifier, error) {
		proto, err := core.NewSelfJoinSize(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(field.NewSplitMix64(vseed))
		if err := v.ObserveBatch(ups, runtime.NumCPU()); err != nil {
			return nil, err
		}
		return v, nil
	}

	fmt.Printf("%4s %14s %14s %10s\n", "k", "serial", "overlapped", "speedup")
	for _, k := range []int{1, 2, 4, 8} {
		vs := make([]*core.FkVerifier, 2*k)
		for i := range vs {
			if vs[i], err = newVerifier(seed + uint64(1000+i)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if _, err := cl.Query(wire.QuerySelfJoinSize, wire.QueryParams{}, vs[i]); err != nil {
				return err
			}
		}
		serial := time.Since(t0)
		t0 = time.Now()
		handles := make([]*wire.QueryHandle, k)
		for i := 0; i < k; i++ {
			if handles[i], err = cl.QueryAsync(wire.QuerySelfJoinSize, wire.QueryParams{}, vs[k+i]); err != nil {
				return err
			}
		}
		for _, h := range handles {
			if _, err := h.Wait(); err != nil {
				return err
			}
		}
		overlapped := time.Since(t0)
		fmt.Printf("%4d %14s %14s %9.2fx\n", k,
			serial.Round(time.Microsecond), overlapped.Round(time.Microsecond),
			float64(serial)/float64(overlapped))
	}
	return nil
}

func logRange(lo, hi int) []int {
	var out []int
	for l := lo; l <= hi; l += 2 {
		out = append(out, l)
	}
	return out
}

// fig2a: verifier stream-processing time vs input size n (Figure 2(a)).
func fig2a(f field.Field, maxMulti, maxOne int, seed uint64, workers int) error {
	fmt.Println("Figure 2(a): verifier's time to process the stream (u = n)")
	fmt.Printf("%-12s %12s %14s %16s %14s\n", "protocol", "n", "stream-time", "updates/sec", "check-time")
	for _, lg := range logRange(10, maxMulti) {
		row, err := harness.F2MultiRound(f, 1<<lg, 1000, seed, workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14s %16.0f %14s\n", row.Protocol, row.N, row.StreamTime, row.UpdatesPerSec, row.CheckTime)
	}
	for _, lg := range logRange(10, maxOne) {
		row, err := harness.F2OneRound(f, 1<<lg, 1000, seed, workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14s %16.0f %14s\n", row.Protocol, row.N, row.StreamTime, row.UpdatesPerSec, row.CheckTime)
	}
	return nil
}

// fig2b: prover's proof-generation time vs universe size (Figure 2(b)).
func fig2b(f field.Field, maxMulti, maxOne int, seed uint64, workers int) error {
	fmt.Println("Figure 2(b): prover's time to generate the proof")
	fmt.Printf("%-12s %12s %14s %16s\n", "protocol", "u", "prove-time", "updates/sec")
	for _, lg := range logRange(10, maxMulti) {
		row, err := harness.F2MultiRound(f, 1<<lg, 1000, seed, workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14s %16.0f\n", row.Protocol, row.U, row.ProveTime, float64(row.N)/row.ProveTime.Seconds())
	}
	for _, lg := range logRange(10, maxOne) {
		row, err := harness.F2OneRound(f, 1<<lg, 1000, seed, workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14s %16.0f\n", row.Protocol, row.U, row.ProveTime, float64(row.N)/row.ProveTime.Seconds())
	}
	return nil
}

// fig2c: verifier space and communication vs universe size (Figure 2(c)).
func fig2c(f field.Field, maxMulti, maxOne int, seed uint64, workers int) error {
	fmt.Println("Figure 2(c): size of communication and working space")
	fmt.Printf("%-12s %12s %14s %14s\n", "protocol", "u", "space-bytes", "comm-bytes")
	for _, lg := range logRange(10, maxMulti) {
		row, err := harness.F2MultiRound(f, 1<<lg, 1000, seed, workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14d %14d\n", row.Protocol, row.U, row.SpaceBytes, row.CommBytes)
	}
	for _, lg := range logRange(10, maxOne) {
		row, err := harness.F2OneRound(f, 1<<lg, 1000, seed, workers)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12d %14d %14d\n", row.Protocol, row.U, row.SpaceBytes, row.CommBytes)
	}
	return nil
}

// fig3: SUB-VECTOR times (a) or space/communication (b) — Figure 3.
func fig3(f field.Field, maxLogU int, span, seed uint64, workers int, times bool) error {
	if times {
		fmt.Printf("Figure 3(a): SUB-VECTOR verifier and prover time (span %d)\n", span)
		fmt.Printf("%12s %14s %14s %14s\n", "u", "stream-time", "prove-time", "check-time")
	} else {
		fmt.Printf("Figure 3(b): SUB-VECTOR space and communication (span %d)\n", span)
		fmt.Printf("%12s %8s %14s %14s %18s\n", "u", "k", "space-bytes", "comm-bytes", "comm-minus-answer")
	}
	for _, lg := range logRange(10, maxLogU) {
		row, err := harness.SubVectorRun(f, 1<<lg, span, 1000, seed, workers)
		if err != nil {
			return err
		}
		if times {
			fmt.Printf("%12d %14s %14s %14s\n", row.U, row.StreamTime, row.ProveTime, row.CheckTime)
		} else {
			fmt.Printf("%12d %8d %14d %14d %18d\n", row.U, row.K, row.SpaceBytes, row.CommBytes, row.CommBytes-16*row.K)
		}
	}
	return nil
}

// tamper: §5 in-text robustness experiment.
func tamper(f field.Field, seed uint64) error {
	fmt.Println("Tamper suite (§5): every dishonest prover must be rejected")
	outcomes, err := harness.TamperSuite(f, 1<<10, seed)
	if err != nil {
		return err
	}
	allRejected := true
	for _, o := range outcomes {
		verdict := "REJECTED (correct)"
		if !o.Rejected {
			verdict = "ACCEPTED (soundness failure!)"
			allRejected = false
		}
		fmt.Printf("%-16s %-24s %s\n", o.Query, o.Mode, verdict)
	}
	if !allRejected {
		return fmt.Errorf("a dishonest prover was accepted")
	}
	fmt.Println("all tampering attempts rejected — matches the paper")
	return nil
}

// branching: §3.1 footnote 1 ℓ/d ablation.
func branching(f field.Field, seed uint64) error {
	fmt.Println("Branching-factor ablation (§3.1 fn. 1): F2 over u = 2^12")
	rows, err := harness.BranchingSweep(f, 1<<12, []int{2, 4, 8, 16, 64}, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %6s %10s %12s %14s %14s\n", "ell", "d", "rounds", "comm-words", "space-bytes", "prove-time")
	for _, r := range rows {
		fmt.Printf("%6d %6d %10d %12d %14d %14s\n", r.Ell, r.D, r.Rounds, r.CommWords, r.SpaceBytes, r.ProveTime)
	}
	return nil
}

// gkr: §3 remark — the specialized F2 protocol vs the Theorem-3 (GKR)
// circuit protocol — plus the engine dividend (snapshot-built provers vs
// stream replay) and the parallel prover (serial vs -workers).
func gkr(f field.Field, seed uint64, workers int) error {
	fmt.Println("GKR ablation (§3 remark): native F2 vs Muggles circuit protocol")
	fmt.Printf("%8s %12s | %14s %14s | %14s %14s\n",
		"u", "protocol", "comm-words", "rounds", "prove-time", "check-time")
	for _, lg := range []int{4, 6, 8, 10} {
		native, gkrRow, err := gkrbench.CompareF2(f, uint64(1)<<lg, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%8d %12s | %14d %14d | %14s %14s\n",
			uint64(1)<<lg, "native", native.CommWords, native.Rounds, native.ProveTime, native.CheckTime)
		fmt.Printf("%8d %12s | %14d %14d | %14s %14s\n",
			uint64(1)<<lg, "gkr", gkrRow.CommWords, gkrRow.Rounds, gkrRow.ProveTime, gkrRow.CheckTime)
	}

	specs := []circuit.Spec{
		{Name: circuit.FamilyF2},
		{Name: circuit.FamilyCount},
		{Name: circuit.FamilyMatMul, Arg: 64},
	}

	fmt.Println("\nEngine-backed GKR: prover setup from maintained counts vs stream replay")
	fmt.Println("(u = 2^12, n = 8u updates; ingest is untimed — the engine maintains it anyway)")
	fmt.Printf("%8s %10s | %14s %14s | %14s %10s\n",
		"family", "source", "setup", "prove", "comm-words", "speedup")
	const lg = 12
	u := uint64(1) << lg
	for _, spec := range specs {
		replay, snapshot, err := gkrbench.CompareSetup(f, u, int(8*u), workers, spec, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%8s %10s | %14s %14s | %14d %10s\n",
			spec.Name, replay.Source, replay.Setup, replay.Prove, replay.CommWords, "")
		fmt.Printf("%8s %10s | %14s %14s | %14d %9.2fx\n",
			spec.Name, snapshot.Source, snapshot.Setup, snapshot.Prove, snapshot.CommWords,
			float64(replay.Setup)/float64(snapshot.Setup))
	}

	fmt.Println("\nParallel GKR prover: serial vs worker pool (transcripts bit-identical)")
	fmt.Printf("%8s | %14s %14s %10s\n", "family", "serial", fmt.Sprintf("workers=%d", workers), "speedup")
	for _, spec := range specs {
		_, serialRun, err := gkrbench.CompareSetup(f, u, int(8*u), 1, spec, seed)
		if err != nil {
			return err
		}
		_, parRun, err := gkrbench.CompareSetup(f, u, int(8*u), workers, spec, seed)
		if err != nil {
			return err
		}
		fmt.Printf("%8s | %14s %14s %9.2fx\n", spec.Name,
			serialRun.Prove.Round(time.Microsecond), parRun.Prove.Round(time.Microsecond),
			float64(serialRun.Prove)/float64(parRun.Prove))
	}
	return nil
}

// freq: §6.2 frequency-based functions.
func freq(f field.Field, seed uint64, workers int) error {
	fmt.Println("Frequency-based functions (§6.2): F0 at φ = u^{-1/2}")
	fmt.Printf("%10s %10s %12s %14s %14s\n", "u", "F0", "comm-words", "prove-time", "check-time")
	for _, lg := range []int{8, 10, 12} {
		row, err := harness.F0Run(f, uint64(1)<<lg, seed, workers)
		if err != nil {
			return err
		}
		fmt.Printf("%10d %10d %12d %14s %14s\n", row.U, row.F0, row.CommWords, row.ProveTime, row.CheckTime)
	}
	return nil
}

// ipv6: §5 closing extrapolation to 1TB of IPv6 addresses.
func ipv6(f field.Field, seed uint64, workers int) error {
	row, err := harness.F2MultiRound(f, 1<<20, 1000, seed, workers)
	if err != nil {
		return err
	}
	proveRate := float64(row.N) / row.ProveTime.Seconds()
	est := harness.IPv6Extrapolate(row.U, proveRate)
	fmt.Println("IPv6 extrapolation (§5): 1TB ≈ 6×10^10 addresses, log u = 128")
	fmt.Printf("measured prover rate at u=2^%d: %.1f M updates/s\n", est.MeasuredLogU, est.MeasuredRate/1e6)
	fmt.Printf("estimated prover time for 1TB IPv6: %.0f seconds (%.0f minutes)\n",
		est.EstimatedSeconds, est.EstimatedSeconds/60)
	fmt.Println("(the paper, on 2011 hardware at 20M upd/s, estimated ~12,000s / 200 min)")
	return nil
}
