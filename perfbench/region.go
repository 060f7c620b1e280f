package main

import (
	"fmt"
	"math"
	"time"

	"ompcloud/internal/bench"
	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/kernels"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
	"ompcloud/internal/xcompress"
)

// regionSpec is an in-process workload: one caller runs a prepared
// kernels.Workload back to back on a cloud device (closed loop, 1 client).
// One op is one Workload.Run call, which may hold several target regions.
type regionSpec struct {
	bench *kernels.Benchmark
	n     int
	kind  data.Kind
	cores int // simulated worker cores (bench.ClusterFor)
}

// regionInst is a set-up in-process workload: inputs generated, device
// built, warm-up op checked against the serial reference.
type regionInst struct {
	spec   regionSpec
	w      *kernels.Workload
	rt     *omp.Runtime
	dev    omp.Device
	plugin *offload.CloudPlugin
	store  *storeProbe // nil unless probed
	golden [][]float32 // outputs of the verified warm-up op
}

func (s regionSpec) setup(seed int64, probed bool) (instance, error) {
	var st storage.Store = storage.NewMemStore()
	inst := &regionInst{spec: s}
	if probed {
		inst.store = newStoreProbe(st)
		st = inst.store
	}
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:  bench.ClusterFor(s.cores),
		Store: st,
		Codec: xcompress.Codec{Algo: xcompress.AlgoAuto},
	})
	if err != nil {
		return nil, err
	}
	inst.plugin = plugin
	rt, err := omp.NewRuntime(16)
	if err != nil {
		plugin.Close()
		return nil, err
	}
	inst.rt = rt
	inst.dev = rt.RegisterDevice(plugin)
	inst.w = s.bench.Prepare(s.n, s.kind, seed)

	// Output gate, first half: the warm-up op must match the serial
	// reference; every timed op must then match it bit for bit.
	rep, err := inst.w.Run(inst.rt, inst.dev)
	if err == nil && rep.FellBack {
		err = fmt.Errorf("region ran on the host: %s", rep.FallbackReason)
	}
	if err == nil {
		err = inst.w.Verify()
	}
	if err != nil {
		plugin.Close()
		return nil, fmt.Errorf("%s warm-up op: %w", s.bench.Name, err)
	}
	inst.golden = copyOutputs(inst.w.Outputs())
	return inst, nil
}

func (r *regionInst) close() { r.plugin.Close() }

func copyOutputs(outs [][]float32) [][]float32 {
	cp := make([][]float32, len(outs))
	for i, o := range outs {
		cp[i] = append([]float32(nil), o...)
	}
	return cp
}

// sameBits reports whether two output sets are bit-identical.
func sameBits(got, want [][]float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				return false
			}
		}
	}
	return true
}

// regionOp is one timed op of an in-process workload.
type regionOp struct {
	start, end time.Time
	report     *trace.Report
}

func (r *regionInst) run(d time.Duration, tr *tracing) (*phase, error) {
	calls0 := fatbin.Default.Calls()
	busy0 := taskComputeSeconds()
	var probe0 storeCounts
	if r.store != nil {
		probe0 = r.store.counts()
	}
	ph := newPhase()
	var ops []regionOp
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		rep, err := r.w.Run(r.rt, r.dev)
		t1 := time.Now()
		// The comparison is outside the op's interval.
		ok := err == nil && !rep.FellBack && sameBits(r.w.Outputs(), r.golden)
		rec := opRecord{lat: t1.Sub(t0), ok: ok}
		if err == nil {
			rec.virtual = rep.Effective().Seconds()
			rec.wire = rep.BytesUploaded + rep.BytesDownloaded
			ops = append(ops, regionOp{start: t0, end: t1, report: rep})
		}
		ph.add(rec)
	}
	ph.finish()
	if tr == nil {
		return ph, nil
	}

	// Per-layer ledger of the traced phase.
	n := float64(len(ops))
	if n == 0 {
		return ph, fmt.Errorf("no op completed in the traced phase")
	}
	L := ph.layers
	L["kernel.calls_per_op"] = float64(fatbin.Default.Calls()-calls0) / n
	busy := taskComputeSeconds() - busy0
	L["kernel.busy_ms_per_op"] = busy * 1e3 / n
	if busy > 0 {
		L["kernel.gflops"] = r.spec.bench.Ops(r.spec.n) * n / busy / 1e9
	}
	shapes := r.spec.bench.Shape(r.spec.n)
	hostIn, _ := r.spec.bench.HostBytes(r.spec.n)
	var sums reportSums
	for _, op := range ops {
		sums.add(op.report, shapes, hostIn)
	}
	sums.perOp(L, n)
	if r.store != nil {
		r.store.counts().sub(probe0).perOp(L, n)
	}

	// Span-derived layers: every span inside an op's interval belongs to
	// that op, because ops run one at a time.
	spans := tr.hostSpans()
	var totals spanTotals
	var selfMS, unattributed, opMS float64
	for _, op := range ops {
		lo, hi := tr.offset(op.start), tr.offset(op.end)
		var children, all []interval
		for _, sp := range spansWithin(spans, lo, hi) {
			iv := interval{sp.Start.Real(), sp.End.Real()}
			all = append(all, iv)
			totals.add(sp)
			if isChildSpan(sp.Name) {
				children = append(children, iv)
			}
		}
		wall := hi - lo
		opMS += ms(wall)
		selfMS += ms(wall - covered(lo, hi, children))
		unattributed += ms(wall - covered(lo, hi, all))
	}
	totals.perOp(L, n)
	L["offload.self_ms_per_op"] = selfMS / n
	L["ledger.unattributed_share"] = unattributed / opMS
	tr.window(ops[0].start, ops[min(len(ops), exportOps)-1].end)
	return ph, nil
}

// taskComputeSeconds is the running sum of the Spark task compute-time
// histogram (count × mean): the kernel bodies' busy time on the
// in-process path.
func taskComputeSeconds() float64 {
	h := span.Metrics().Histogram("spark.task.compute.seconds")
	return float64(h.Count()) * h.Mean()
}

// reportSums totals the trace.Report fields the ledger reads over the ops
// of a traced phase.
type reportSums struct {
	decoded, tasks, failures, bcast, scattered, up, hostIn, retries float64
}

// add counts one op's report; shapes and hostIn describe the op's
// benchmark at its size (Benchmark.Shape, Benchmark.HostBytes).
func (s *reportSums) add(rep *trace.Report, shapes []kernels.RegionShape, hostIn int64) {
	s.decoded += decodedBytes(shapes, rep.Tiles)
	s.tasks += float64(rep.Tiles)
	s.failures += float64(rep.TaskFailures)
	s.bcast += float64(rep.BytesBroadcast)
	s.scattered += float64(rep.BytesScattered)
	s.up += float64(rep.BytesUploaded)
	s.hostIn += float64(hostIn)
	s.retries += float64(rep.StorageRetries)
}

// perOp writes the report-derived ledger entries over n ops.
func (s reportSums) perOp(L map[string]float64, n float64) {
	L["data.decoded_mb_per_op"] = s.decoded / 1e6 / n
	L["spark.tasks_per_op"] = s.tasks / n
	L["spark.task_failures_per_op"] = s.failures / n
	L["offload.broadcast_mb_per_op"] = s.bcast / 1e6 / n
	L["offload.scattered_mb_per_op"] = s.scattered / 1e6 / n
	L["chunkio.retries_per_op"] = s.retries / n
	if s.hostIn > 0 {
		L["xcompress.wire_ratio"] = s.up / s.hostIn
	}
}

// decodedBytes is the tile input bytes a region decodes: every tile
// decodes each broadcast input whole and its own window of each
// partitioned input. Loops of a data environment share the tile count.
func decodedBytes(shapes []kernels.RegionShape, tiles int) float64 {
	if len(shapes) == 0 {
		return 0
	}
	perLoop := float64(tiles) / float64(len(shapes))
	var b float64
	for _, s := range shapes {
		b += perLoop*float64(s.BcastInBytes) + float64(s.PartInBytes)
	}
	return b
}
