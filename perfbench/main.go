// Command perfbench is the repository benchmark. It runs one workload
// through the public library and service APIs for a fixed time, checks
// every output bit for bit, and prints the end-to-end metrics by name with
// their units; a traced run prints the per-layer ledger instead. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload region-bcast --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and what each one measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/trace/span"
)

// instance is a set-up workload: run drives its closed loop for d and
// returns the phase's ops; with tr non-nil it also fills the per-layer
// ledger from the probes and the recorded spans.
type instance interface {
	run(d time.Duration, tr *tracing) (*phase, error)
	close()
}

// setupFunc builds a workload instance from the seed; probed turns on
// every probe the traced run reads.
type setupFunc func(seed int64, probed bool) (instance, error)

var workloads = map[string]setupFunc{
	"region-bcast": regionSpec{bench: kernels.GEMM, n: 768, kind: data.Dense, cores: 64}.setup,
	"env-chain":    regionSpec{bench: kernels.ThreeMM, n: 256, kind: data.Sparse, cores: 64}.setup,
	"service-mix":  setupService,
}

// rssEvery is the resident-set sampling interval of the timed phase.
const rssEvery = 50 * time.Millisecond

// setupReps is how many times an end-to-end run sets its workload up;
// setup_s is the median, and the last set-up instance is the one timed.
const setupReps = 5

// opRecord is one attempted op.
type opRecord struct {
	lat     time.Duration
	virtual float64 // modelled seconds
	wire    int64   // host-target bytes
	ok      bool    // completed with the expected outputs
}

// phase is one timed closed-loop interval.
type phase struct {
	ops      []opRecord
	start    time.Time
	wall     time.Duration
	rt0, rt1 runtimeSample
	layers   map[string]float64
}

func newPhase() *phase {
	return &phase{start: time.Now(), rt0: readRuntime(), layers: make(map[string]float64)}
}

func (p *phase) add(r opRecord) { p.ops = append(p.ops, r) }

// finish closes the timed interval.
func (p *phase) finish() {
	p.wall = time.Since(p.start)
	p.rt1 = readRuntime()
}

func (p *phase) failed() int {
	n := 0
	for _, op := range p.ops {
		if !op.ok {
			n++
		}
	}
	return n
}

func (p *phase) latencyMS(q float64) float64 {
	var lat []float64
	for _, op := range p.ops {
		if op.ok {
			lat = append(lat, ms(op.lat))
		}
	}
	return quantile(lat, q)
}

// metric is one named result with its unit.
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

// endToEndUnits lists the end-to-end metrics in print order. Their times
// are process CPU time, which host CPU steal on a shared virtual machine
// moves far less than wall time; wallUnits holds the wall-clock figures.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"virtual_s_per_op", "s"},
	{"wire_mb_per_op", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"rss_p90_mb", "MB"},
	{"ok_share", "ratio"},
}

// wallUnits lists the wall-clock figures: printed by the end-to-end run
// and carried in the ledger, from its untraced half.
var wallUnits = []struct{ name, unit string }{
	{"wall.setup_s", "s"},
	{"wall.ops_per_s", "ops/s"},
	{"wall.latency_p50_ms", "ms"},
	{"wall.latency_p90_ms", "ms"},
}

// wallFigures computes the wallUnits figures of a phase whose instance
// took setupS wall seconds to set up.
func wallFigures(ph *phase, setupS float64) map[string]float64 {
	return map[string]float64{
		"wall.setup_s":        setupS,
		"wall.ops_per_s":      float64(len(ph.ops)-ph.failed()) / ph.wall.Seconds(),
		"wall.latency_p50_ms": ph.latencyMS(0.5),
		"wall.latency_p90_ms": ph.latencyMS(0.9),
	}
}

// layerUnits lists the per-layer ledger in print order; the wall-clock
// figures come last.
var layerUnits = append([]struct{ name, unit string }{
	{"kernel.calls_per_op", "count"},
	{"kernel.busy_ms_per_op", "ms"},
	{"kernel.gflops", "GFLOP/s"},
	{"data.decoded_mb_per_op", "MB"},
	{"spark.tasks_per_op", "count"},
	{"spark.job_ms_per_op", "ms"},
	{"spark.task_failures_per_op", "count"},
	{"offload.self_ms_per_op", "ms"},
	{"offload.broadcast_mb_per_op", "MB"},
	{"offload.scattered_mb_per_op", "MB"},
	{"xcompress.compress_ms_per_op", "ms"},
	{"xcompress.wire_ratio", "ratio"},
	{"chunkio.put_p50_ms", "ms"},
	{"chunkio.get_p50_ms", "ms"},
	{"chunkio.retries_per_op", "count"},
	{"storage.ops_per_op", "count"},
	{"storage.mb_per_op", "MB"},
	{"storage.busy_ms_per_op", "ms"},
	{"storage.errors_per_op", "count"},
	{"storage.journal_ops_per_job", "count"},
	{"remoteexec.tiles_per_job", "count"},
	{"remoteexec.wire_mb_per_job", "MB"},
	{"serve.admit_wait_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.reply_ms_p50", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected_per_job", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"ledger.unattributed_share", "ratio"},
	{"trace.spans_dropped", "count"},
}, wallUnits...)

func main() { os.Exit(run()) }

func run() int {
	processStart := time.Now()
	var (
		name       = flag.String("workload", "", "workload: region-bcast | env-chain | service-mix")
		seed       = flag.Int64("seed", 1, "input seed")
		seconds    = flag.Int("seconds", 30, "timed seconds")
		traced     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
		traceDir   = flag.String("trace-dir", ".bench_build/trace", "where the traced run writes its Chrome trace")
		tracecheck = flag.String("tracecheck", ".bench_build/bin/ompcloud-tracecheck", "ompcloud-tracecheck binary that validates the Chrome trace")
	)
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names)
		return 2
	}
	d := time.Duration(*seconds) * time.Second

	var res result
	var err error
	if *traced == 0 {
		res, err = endToEnd(setup, *seed, d, processStart)
	} else {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		res, err = ledger(setup, *seed, d, path, *tracecheck)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: not correct: %d of %d ops failed\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// endToEnd sets the workload up setupReps times and times the last
// instance's closed loop with tracing off.
func endToEnd(setup setupFunc, seed int64, d time.Duration, processStart time.Time) (result, error) {
	var inst instance
	var setupCPU, setupWall []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0, c0 := time.Now(), processCPUSeconds()
		if i == 0 {
			t0, c0 = processStart, 0
		}
		var err error
		if inst, err = setup(seed, false); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, processCPUSeconds()-c0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer inst.close()
	runtime.GC()
	rss := sampleRSS(rssEvery)
	ph, err := inst.run(d, nil)
	rssMB := rss.finish()
	if err != nil {
		return result{}, err
	}
	var virtual []float64
	var wire float64
	for _, op := range ph.ops {
		if op.ok {
			virtual = append(virtual, op.virtual)
			wire += float64(op.wire)
		}
	}
	attempted, failed := len(ph.ops), ph.failed()
	done := float64(attempted - failed)
	m := map[string]float64{
		"setup_s":          median(setupCPU),
		"cpu_ms_per_op":    (ph.rt1.processCPU - ph.rt0.processCPU) * 1e3 / float64(attempted),
		"virtual_s_per_op": median(virtual),
		"wire_mb_per_op":   wire / 1e6 / max(done, 1),
		"alloc_mb_per_op":  float64(ph.rt1.allocBytes-ph.rt0.allocBytes) / 1e6 / float64(attempted),
		"rss_p90_mb":       quantile(rssMB, 0.9),
		"ok_share":         done / float64(attempted),
	}
	fmt.Printf("end-to-end: %d ops in %.2f s (%d failed); set-up CPU %v s, wall %v s\n",
		attempted, ph.wall.Seconds(), failed, setupCPU, setupWall)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, e := range endToEndUnits {
		fmt.Printf("  %-20s %14.4f %s\n", e.name, m[e.name], e.unit)
		res.Metrics[e.name] = metric{Value: m[e.name], Unit: e.unit}
	}
	fmt.Println("wall clock (follows host load; the ledger carries it too):")
	w := wallFigures(ph, median(setupWall))
	for _, e := range wallUnits {
		fmt.Printf("  %-20s %14.4f %s\n", e.name, w[e.name], e.unit)
	}
	return res, nil
}

// ledger runs half the time untraced and half traced with every probe on,
// then prints the per-layer ledger of the traced half and the wall-clock
// figures of the untraced half.
func ledger(setup setupFunc, seed int64, d time.Duration, tracePath, tracecheck string) (result, error) {
	t0 := time.Now()
	plain, err := setup(seed, false)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plainSetup := time.Since(t0).Seconds()
	runtime.GC()
	phA, err := plain.run(d/2, nil)
	plain.close()
	if err != nil {
		return result{}, err
	}

	probed, err := setup(seed, true)
	if err != nil {
		return result{}, fmt.Errorf("probed set-up: %w", err)
	}
	defer probed.close()
	runtime.GC()
	tr := startTracing()
	phB, err := probed.run(d/2, tr)
	span.Disable()
	if err != nil {
		return result{}, err
	}

	L := phB.layers
	for k, v := range wallFigures(phA, plainSetup) {
		L[k] = v
	}
	if cpu := phB.rt1.totalCPU - phB.rt0.totalCPU; cpu > 0 {
		L["go.gc_cpu_share"] = (phB.rt1.gcCPU - phB.rt0.gcCPU) / cpu
	}
	if a := phA.latencyMS(0.5); a > 0 {
		L["trace.overhead_share"] = phB.latencyMS(0.5)/a - 1
	}
	dropped := tr.rec.Dropped()
	L["trace.spans_dropped"] = float64(dropped)

	var health []error
	if dropped != 0 {
		health = append(health, fmt.Errorf("%d spans dropped; the ledger is incomplete", dropped))
	}
	exported, err := tr.export(tracePath)
	if err == nil {
		err = checkTrace(tracePath, tracecheck)
	}
	if err != nil {
		health = append(health, fmt.Errorf("chrome trace: %w", err))
	}

	attempted := len(phA.ops) + len(phB.ops)
	failed := phA.failed() + phB.failed()
	fmt.Printf("ledger: traced phase %d ops (%d failed), untraced phase %d ops (%d failed); %d spans recorded, %d exported to %s\n",
		len(phB.ops), phB.failed(), len(phA.ops), phA.failed(), tr.rec.Len(), exported, tracePath)
	fmt.Println("  note: span.Default() and span.Metrics() are process-global, so with jobs in flight")
	fmt.Println("  together (service-mix) the per-job numbers are means over concurrent jobs.")
	fmt.Println("  wall.* are from the untraced half.")
	res := result{Correct: failed == 0 && len(health) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, e := range layerUnits {
		fmt.Printf("  %-30s %14.4f %s\n", e.name, L[e.name], e.unit)
		res.Metrics[e.name] = metric{Value: L[e.name], Unit: e.unit}
	}
	if len(health) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: ledger self-check:", errors.Join(health...))
	}
	return res, nil
}
