// Command perfbench is the repository's benchmark. It runs one named
// workload against in-process wire.Servers (and, for split_ingest, a
// shard.Router) over loopback TCP, checks every verdict, and prints its
// metrics as one JSON object on the last line of standard output:
//
//	perfbench --workload owner_rw --seed 1 --seconds 15 --trace 0
//
// --seed fixes every input the workload generates; the servers receive
// only those inputs. --seconds sizes the run's fixed op schedule at the
// workload's op rate on the nominal host. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each workload name to its run function.
var workloads = map[string]func(*bench) error{
	"owner_rw":     ownerRW,
	"proof_fanout": proofFanout,
	"split_ingest": splitIngest,
	"tenant_churn": tenantChurn,
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports; timings are
// rescaled to the nominal host.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"ingest_mups", "Mupd/s"},
	{"observe_mups", "Mupd/s"},
	{"comm_bytes_per_op", "B"},
	{"verifier_words", "words"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, as measured: the
// median of each layer's samples.
var perLayer = []metricDef{
	{"engine.ingest_ms", "ms"},
	{"engine.snapshot_us", "us"},
	{"engine.new_prover_ms", "ms"},
	{"engine.rehydrate_ms", "ms"},
	{"store.save_ms", "ms"},
	{"store.load_ms", "ms"},
	{"prover.open_ms", "ms"},
	{"prover.round_us", "us"},
	{"prover.query_ms", "ms"},
	{"prover.rounds", "count"},
	{"prover.serial_query_ms", "ms"},
	{"prover.parallel_speedup", "x"},
	{"verifier.observe_mups", "Mupd/s"},
	{"verifier.round_us", "us"},
	{"fs.prove_ms", "ms"},
	{"fs.verify_us", "us"},
	{"fs.proof_bytes", "B"},
	{"proofcache.hit_us", "us"},
	{"proofcache.hit_ratio", "1"},
	{"proofcache.coalesced", "count"},
	{"wire.query_ms", "ms"},
	{"wire.fetch_us", "us"},
	{"wire.ingest_ms", "ms"},
	{"wire.overhead_ms", "ms"},
	{"shard.query_ms", "ms"},
	{"shard.ingest_ms", "ms"},
	{"shard.partial_round_us", "us"},
	{"shard.fold_us", "us"},
	{"go.alloc_kb_per_op", "KB"},
	{"go.gc_per_kop", "count"},
	{"trace.op_p50_ms", "ms"},
	{"trace.untraced_op_p50_ms", "ms"},
	{"trace.overhead_ratio", "1"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: owner_rw, proof_fanout, split_ingest or tenant_churn")
	seed := flag.Uint64("seed", 1, "seed every generated input is drawn from")
	seconds := flag.Int("seconds", 15, "run length on the nominal host; sizes the fixed op schedule")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *trace)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}
	b := &bench{
		seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir,
		refs: map[refKey]refValues{}, layers: map[string][]float64{},
	}
	t0 := time.Now()
	b.host.mark()
	if err := fn(b); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	b.host.mark()
	diag, res, err := b.report(*workload, time.Since(t0))
	if err != nil {
		return err
	}
	for _, v := range []any{diag, res} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// report assembles the run's diagnostics line and its result.
func (b *bench) report(workload string, elapsed time.Duration) (map[string]any, result, error) {
	res := result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
	}
	if b.attempted == 0 {
		return nil, res, fmt.Errorf("no ops attempted")
	}
	raw := b.endToEnd(false)
	vals, defs := b.endToEnd(true), endToEnd
	if b.trace {
		vals, defs = b.perLayer(), perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, res, fmt.Errorf("metric %s has no value", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	samples := b.host.samples
	refUS := make([]float64, len(samples))
	for i, s := range samples {
		refUS[i] = us(s.d)
	}
	first, last := samples[0], samples[len(samples)-1]
	steal := 0.0
	if last.total > first.total {
		steal = float64(last.steal-first.steal) / float64(last.total-first.total)
	}
	diag := map[string]any{
		"workload": workload, "seed": b.seed, "seconds": b.seconds, "trace": b.trace,
		"elapsed_s": elapsed.Seconds(), "ops": len(b.ops),
		"fail_frac": float64(b.failed) / float64(b.attempted),
		"problems":  b.problems,
		// Reference-workload rate in runs per second at the 10th, 50th
		// and 90th percentile of the run's samples, and the nominal rate.
		"ref_rate": map[string]float64{
			"p10":     1e6 / quantile(refUS, 0.9),
			"p50":     1e6 / median(refUS),
			"p90":     1e6 / quantile(refUS, 0.1),
			"nominal": 1e6 / us(refNominal),
		},
		// Share of the host's CPU time the hypervisor stole during the run.
		"steal": steal,
		"raw":   raw,
	}
	if b.firstFail != nil {
		diag["first_failure"] = b.firstFail.Error()
	}
	return map[string]any{"diagnostics": diag}, res, nil
}

// endToEnd computes the end-to-end metrics, rescaled to the nominal
// host or raw.
func (b *bench) endToEnd(rescale bool) map[string]float64 {
	lat := b.walls(b.ops, rescale)
	_, cpu := b.sums(b.cpuWins, rescale)
	// Per-call rates over the steady state's ingest calls (set-up's for
	// a workload whose ops never ingest). A quarter of the calls that
	// follow a snapshot run two to three times slower than the rest, as
	// the table clone faults in fresh pages or meets a GC cycle; the
	// interquartile mean drops the extremes and, unlike a median, does
	// not jump between the two clusters as their shares shift.
	ingests, n := b.ingests, b.ingestN
	if len(ingests) == 0 {
		ingests, n = b.setupIng, b.setupN
	}
	rates := b.walls(ingests, rescale)
	for i, w := range rates {
		rates[i] = float64(n[i]) / w / 1e6
	}
	obs, _ := b.sums(b.observes, rescale)
	setups := b.rawSetup
	if rescale {
		setups = b.setups
	}
	return map[string]float64{
		"setup_s":           median(setups),
		"op_p50_ms":         quantile(lat, 0.5) * 1e3,
		"op_p90_ms":         quantile(lat, 0.9) * 1e3,
		"cpu_ms_per_op":     cpu * 1e3 / float64(len(b.ops)),
		"ingest_mups":       interquartileMean(rates),
		"observe_mups":      float64(b.observed) / obs / 1e6,
		"comm_bytes_per_op": float64(b.commBytes) / float64(len(b.ops)),
		"verifier_words":    float64(b.verifierWords),
		"peak_rss_mb":       peakRSSMB(),
	}
}

// perLayer computes the per-layer metrics of a traced run: the median
// of every layer's samples, plus the run-wide ratios.
func (b *bench) perLayer() map[string]float64 {
	out := map[string]float64{}
	for name, xs := range b.layers {
		out[name] = median(xs)
	}
	obs, _ := b.sums(b.observes, false)
	out["verifier.observe_mups"] = float64(b.observed) / obs / 1e6
	traced := median(b.walls(b.tracedOps, false)) * 1e3
	plain := median(b.walls(b.plainOps, false)) * 1e3
	out["trace.op_p50_ms"] = traced
	out["trace.untraced_op_p50_ms"] = plain
	out["trace.overhead_ratio"] = traced / plain
	n := float64(len(b.tracedOps))
	out["go.alloc_kb_per_op"] = float64(b.allocBytes) / 1024 / n
	out["go.gc_per_kop"] = float64(b.gcs) * 1000 / n
	return out
}
