// Command perfbench is the repository benchmark: one process that builds
// the parse stacks from the repository's public packages, drives them
// from outside with seeded inputs, checks their outputs, and prints
// every metric by name with its unit.
//
//	perfbench --workload lookup-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, measured untraced; --trace 1 reports the per-layer
// metrics from a separate traced pass (see README.md in this directory
// for the workloads, the layer map and the steadiness rules).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/crf"
	"repro/internal/labels"
	"repro/internal/optimize"
	"repro/internal/synth"
)

// Tail percentiles: the highest that keeps at least ten samples beyond
// it and repeats within the metric's bound (see README.md).
const (
	tailQ      = 0.9  // lookup round trips
	queryTailQ = 0.9  // predicate surveys
	layerTailQ = 0.99 // per-layer span durations
)

// setupReps is how many times a run builds its stack from scratch;
// setup_s is the median, and only the last stack is measured.
const setupReps = 3

// Training mirrors rdapd's start-up parser (200 labeled records, 40
// L-BFGS iterations) with a single gradient worker so set-up does the
// same arithmetic, in the same order, on every run. The training corpus
// does not depend on --seed: the model and its compiled templates are
// the system under test, the seed only draws the traffic.
const (
	trainRecords    = 200
	trainIterations = 40
	trainSeed       = 1 + 7919 // rdapd's corpus seed for -seed 1
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome tallies operations: every timed operation and every
// correctness check counts as attempted; a failed operation or a
// failed check counts as failed.
type outcome struct {
	attempted, failed int64
	checks            []string // descriptions of failed checks
}

// ops records n timed operations of which failed failed.
func (o *outcome) ops(n, failed int64) {
	o.attempted += n
	o.failed += failed
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

// params are the command-line inputs every workload sees.
type params struct {
	seed    int64
	seconds int
	trace   bool
	workDir string // scratch space inside the checkout
}

func main() {
	workload := flag.String("workload", "", "lookup-hot, lookup-cold or survey")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal measuring time; sets the fixed amount of work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.Parse()

	if *seconds < 1 || *seconds > 600 {
		fatalf("--seconds must be in 1..600, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatalf("scratch dir: %v", err)
	}
	defer os.RemoveAll(dir)
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, workDir: dir}

	var (
		metrics map[string]metric
		out     outcome
	)
	switch *workload {
	case "lookup-hot":
		metrics, err = runLookup(p, hotShape, &out)
	case "lookup-cold":
		metrics, err = runLookup(p, coldShape, &out)
	case "survey":
		metrics, err = runSurvey(p, &out)
	default:
		err = fmt.Errorf("unknown --workload %q (want lookup-hot, lookup-cold or survey)", *workload)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatalf("%s: %v", *workload, err)
	}
	for _, c := range out.checks {
		logf("check failed: %s", c)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatalf(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}

// trainParser trains the two-level CRF the way rdapd does at start-up
// when it is given no model, but with one gradient worker.
func trainParser() (*core.Parser, []*labels.LabeledRecord, error) {
	recs := synth.GenerateLabeled(synth.Config{N: trainRecords, Seed: trainSeed})
	cfg := core.DefaultConfig()
	lb := optimize.DefaultLBFGSConfig()
	lb.MaxIterations = trainIterations
	cfg.Train = crf.TrainConfig{LBFGS: lb, Workers: 1}
	p, _, err := core.Train(recs, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("train parser: %w", err)
	}
	return p, recs, nil
}

// repeatSetup builds a stack setupReps times and returns the last one
// with the median build time. Earlier stacks are closed before the next
// is built, so only one is ever live.
func repeatSetup[S any](build func() (S, error), closeFn func(S)) (S, float64, error) {
	var (
		s     S
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			closeFn(s)
		}
		runtime.GC()
		start := time.Now()
		var err error
		s, err = build()
		if err != nil {
			return s, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, median(times), nil
}

// settle collects the heap so the timed phase starts from the same
// garbage-free state on every run.
func settle() {
	runtime.GC()
	runtime.GC()
}

// totalAlloc reads the cumulative allocation counter.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeapMB collects and reports the live heap.
func liveHeapMB() float64 {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (0 for an empty slice).
// It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerUnits names every per-layer metric with its unit. Every workload
// reports all of them; a layer the workload does not exercise reports 0.
var layerUnits = map[string]string{
	"rdap.self_us":         "us",
	"rdap.resp_bytes":      "bytes",
	"serve.hit_ratio":      "ratio",
	"serve.self_us":        "us",
	"serve.hits":           "count",
	"serve.misses":         "count",
	"serve.coalesced":      "count",
	"serve.shed":           "count",
	"tiered.l0_ratio":      "ratio",
	"tiered.l0_us":         "us",
	"tiered.self_us":       "us",
	"tiered.l0":            "count",
	"tiered.l1":            "count",
	"tiered.fallbacks":     "count",
	"tiered.demotions":     "count",
	"core.parse_us":        "us",
	"core.parse_tail_us":   "us",
	"core.parses":          "count",
	"core.share":           "ratio",
	"tokenize.us_per_rec":  "us",
	"tokenize.share":       "ratio",
	"survey.facts_us":      "us",
	"survey.tables_ms":     "ms",
	"store.append_us":      "us",
	"store.sync_ms":        "ms",
	"store.compress_ms":    "ms",
	"store.bytes_per_rec":  "bytes",
	"store.segments":       "count",
	"store.records":        "count",
	"store.bytes":          "bytes",
	"query.build_ms":       "ms",
	"query.pruned_ratio":   "ratio",
	"query.read_per_match": "ratio",
	"query.survey_ms":      "ms",
	"query.records_read":   "count",
	"query.matched":        "count",
	"trace.overhead":       "ratio",
	"trace.accounted":      "ratio",
}

// layerMetrics is a per-layer report, every metric present.
type layerMetrics map[string]metric

func zeroLayers() layerMetrics {
	m := make(layerMetrics, len(layerUnits))
	for name, unit := range layerUnits {
		m[name] = metric{0, unit}
	}
	return m
}

func (m layerMetrics) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	m[name] = metric{v, unit}
}
