package bench

import (
	"fmt"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/netsim"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/xcompress"
)

// NetChaosKernel is one benchmark's clean-vs-link-fault comparison: the same
// workload runs once over a healthy store and once behind a scheduled link
// fault (hard partition, bandwidth collapse, flapping, latency jitter), and
// wherever both runs finish on the cloud device the outputs must be bitwise
// identical.
type NetChaosKernel struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
	// Overlap records the dataflow mode of the row: tile-granular
	// streaming (true) or the stage-barriered workflow (false).
	Overlap bool `json:"overlap"`
	// The network-resilience events the faulted run absorbed.
	DeadlineAborts   int     `json:"deadline_aborts"`
	HedgedGets       int     `json:"hedged_gets"`
	HedgeWins        int     `json:"hedge_wins"`
	DegradedSwitches int     `json:"degraded_switches"`
	StorageRetries   int     `json:"storage_retries"`
	RefusedOps       int64   `json:"refused_ops"`
	PartitionSeconds float64 `json:"partition_seconds"`
	// FellBack marks the hard-partition rows, whose device leg is
	// unrecoverable by design: the run completed on the host.
	FellBack       bool   `json:"fell_back"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	// CleanVirtualS/ChaosVirtualS are the virtual end-to-end durations.
	CleanVirtualS float64 `json:"clean_virtual_s"`
	ChaosVirtualS float64 `json:"chaos_virtual_s"`
	// The bandwidth-collapse rows compare a non-adapting baseline against
	// the degraded-mode run over the same collapsed link. Wire bytes are
	// what each run actually shipped; LinkS prices those bytes at the
	// link's true (collapsed) rate — the honest makespan basis, since the
	// baseline's own virtual accounting still believes the provisioned
	// rate it no longer gets.
	BaselineWireKB float64 `json:"baseline_wire_kb,omitempty"`
	AdaptedWireKB  float64 `json:"adapted_wire_kb,omitempty"`
	BaselineLinkS  float64 `json:"baseline_link_s,omitempty"`
	AdaptedLinkS   float64 `json:"adapted_link_s,omitempty"`
	// Identical confirms the faulted outputs matched the clean run bit for
	// bit. Fallback rows, which finish on the host, are compared too.
	Identical bool `json:"identical"`
}

// NetChaosTotals aggregates the resilience counters across the soak; the
// bench fails unless every mechanism actually engaged.
type NetChaosTotals struct {
	DeadlineAborts   int     `json:"deadline_aborts"`
	HedgedGets       int     `json:"hedged_gets"`
	HedgeWins        int     `json:"hedge_wins"`
	DegradedSwitches int     `json:"degraded_switches"`
	Fallbacks        int     `json:"fallbacks"`
	RefusedOps       int64   `json:"refused_ops"`
	PartitionSeconds float64 `json:"partition_seconds"`
}

// NetChaosBench is the full link-fault soak result set, serialized to
// BENCH_netchaos.json by cmd/ompcloud-bench -netchaos.
type NetChaosBench struct {
	N       int              `json:"n"`
	Seed    int64            `json:"seed"`
	Cores   int              `json:"cores"`
	Kernels []NetChaosKernel `json:"kernels"`
	Totals  NetChaosTotals   `json:"totals"`
}

// netChaosCores keeps the soak cluster small so every kernel still splits
// into several tiles at bench dimensions.
const netChaosCores = 8

// The bandwidth-collapse scenario's link: a healthy gigabyte-per-second wire
// that collapses to 1% mid-deployment. The plugin is provisioned at 8 Gbps,
// so the adaptive codec's verdict is raw until the observed rate replaces
// the provisioned one.
const (
	collapseHealthyBPS = 1e9
	collapseFrac       = 0.01
)

// netChaosPlugin builds the cloud device for one soak run: chunked
// transfers, storage retries without real backoff sleeping, and at least
// four real cores so hedges and deadline guards race real goroutines.
func netChaosPlugin(st storage.Store, overlap bool, mut func(*offload.CloudConfig)) (*offload.CloudPlugin, error) {
	cfg := offload.CloudConfig{
		Spec:            ClusterFor(netChaosCores),
		Store:           st,
		ChunkBytes:      4096,
		RetryMax:        4,
		RetrySleep:      func(time.Duration) {},
		RealParallelism: 4,
	}
	if !overlap {
		cfg.Overlap = -1
	}
	if mut != nil {
		mut(&cfg)
	}
	return offload.NewCloudPlugin(cfg)
}

// netChaosRun executes one workload on one plugin and verifies it against
// the serial reference.
func netChaosRun(b *kernels.Benchmark, plugin *offload.CloudPlugin, n int, seed int64) (*trace.Report, [][]float32, error) {
	rt, err := omp.NewRuntime(4)
	if err != nil {
		return nil, nil, err
	}
	w := b.Prepare(n, data.Dense, seed)
	rep, err := w.Run(rt, rt.RegisterDevice(plugin))
	if err != nil {
		return nil, nil, err
	}
	if err := w.Verify(); err != nil {
		return nil, nil, err
	}
	return rep, snapshotOutputs(w), nil
}

// cleanNetRun is the healthy-store reference a faulted row compares against.
type cleanNetRun struct {
	rep  *trace.Report
	outs [][]float32
}

// netChaosScenario is one deterministic link-fault schedule.
type netChaosScenario struct {
	name string
	// fallback marks the hard-partition schedule, which is unrecoverable
	// by design; only single-region kernels get it (multi-region
	// workloads run inside a target-data environment, whose mid-flight
	// storage failures surface as errors rather than re-running on the
	// host).
	fallback bool
	run      func(b *kernels.Benchmark, overlap bool, n int, seed int64, clean *cleanNetRun, row *NetChaosKernel) error
}

// runNetPartition: the WAN partitions hard mid-run and never heals. The op
// clock places the partition at the 6th storage operation — after the 3-op
// health probe and the first uploads, before even the smallest kernel (10
// ops end to end) finishes — so the failure is always mid-flight and the
// only exit is host fallback.
func runNetPartition(b *kernels.Benchmark, overlap bool, n int, seed int64, clean *cleanNetRun, row *NetChaosKernel) error {
	sched := netsim.NewSchedule().PartitionFrom(6 * time.Millisecond)
	nf := storage.NewNetFault(storage.NewMemStore(), sched).UseOpClock(time.Millisecond)
	plugin, err := netChaosPlugin(nf, overlap, nil)
	if err != nil {
		return err
	}
	defer plugin.Close()
	rep, outs, err := netChaosRun(b, plugin, n, seed)
	if err != nil {
		return err
	}
	if err := compareOutputs(clean.outs, outs); err != nil {
		return err
	}
	row.Identical = true
	row.FellBack = rep.FellBack
	row.FallbackReason = rep.FallbackReason
	row.StorageRetries = rep.StorageRetries
	row.RefusedOps = nf.Refused()
	row.PartitionSeconds = nf.PartitionSeconds()
	row.ChaosVirtualS = rep.Total().Seconds()
	if !rep.FellBack {
		return fmt.Errorf("hard partition should have forced a host fallback")
	}
	if rep.FallbackReason == "" {
		return fmt.Errorf("fallback report is missing its reason")
	}
	if row.RefusedOps == 0 {
		return fmt.Errorf("partition never refused an operation")
	}
	if row.PartitionSeconds <= 0 {
		return fmt.Errorf("partition accrued no downtime")
	}
	return nil
}

// runNetCollapse: the link collapses to 1% of its healthy rate for the whole
// deployment. A baseline plugin keeps trusting the provisioned 8 Gbps (so
// the adaptive codec ships dense chunks raw); the adapting plugin observes
// the collapse, enters degraded mode, and the codec verdict re-qualifies
// dense data for compression. Both are priced at the link's true rate.
func runNetCollapse(b *kernels.Benchmark, overlap bool, n int, seed int64, clean *cleanNetRun, row *NetChaosKernel) error {
	prof := netsim.DefaultProfile()
	prof.WAN.BitsPerSs = 8e9
	sched := netsim.NewSchedule().Collapse(0, 0, collapseFrac)
	mk := func(adapt bool) (*offload.CloudPlugin, error) {
		nf := storage.NewNetFault(storage.NewMemStore(), sched).
			SetRate(collapseHealthyBPS).SetSeed(uint64(seed))
		return netChaosPlugin(nf, overlap, func(cfg *offload.CloudConfig) {
			cfg.Profile = prof
			cfg.Codec = xcompress.Codec{MinSize: 512, Algo: xcompress.AlgoAdaptive}
			cfg.ChunkParallel = 4
			cfg.AdaptDegraded = adapt
		})
	}

	base, err := mk(false)
	if err != nil {
		return err
	}
	defer base.Close()
	baseRep, _, err := netChaosRun(b, base, n, seed)
	if err != nil {
		return fmt.Errorf("baseline run: %w", err)
	}

	adap, err := mk(true)
	if err != nil {
		return err
	}
	defer adap.Close()
	// Run one warms the rate meter and flips the degraded latch; run two
	// transfers under the degraded plan from the first leg on.
	rep1, _, err := netChaosRun(b, adap, n, seed)
	if err != nil {
		return fmt.Errorf("adapting run 1: %w", err)
	}
	rep2, outs, err := netChaosRun(b, adap, n, seed)
	if err != nil {
		return fmt.Errorf("adapting run 2: %w", err)
	}
	if baseRep.FellBack || rep1.FellBack || rep2.FellBack {
		return fmt.Errorf("collapse rows must complete on the device")
	}

	row.DegradedSwitches = rep1.DegradedSwitches + rep2.DegradedSwitches
	row.StorageRetries = rep2.StorageRetries
	row.ChaosVirtualS = rep2.Total().Seconds()
	baseWire := baseRep.BytesUploaded + baseRep.BytesDownloaded
	adWire := rep2.BytesUploaded + rep2.BytesDownloaded
	row.BaselineWireKB = float64(baseWire) / 1e3
	row.AdaptedWireKB = float64(adWire) / 1e3
	trueRate := collapseHealthyBPS * collapseFrac
	row.BaselineLinkS = float64(baseWire) / trueRate
	row.AdaptedLinkS = float64(adWire) / trueRate
	if row.DegradedSwitches < 1 {
		return fmt.Errorf("collapsed link never entered degraded mode")
	}
	if adWire >= baseWire {
		return fmt.Errorf("degraded-mode codec re-verdict did not reduce wire bytes: %d vs %d", adWire, baseWire)
	}
	if row.AdaptedLinkS >= row.BaselineLinkS {
		return fmt.Errorf("adaptation lost on the true-rate makespan: %.3fs vs %.3fs", row.AdaptedLinkS, row.BaselineLinkS)
	}
	if err := compareOutputs(clean.outs, outs); err != nil {
		return err
	}
	row.Identical = true
	return nil
}

// runNetFlap: the link flaps — 30 ms down, 3 ms up — in TCP-stall mode, so
// partitioned operations hang instead of failing, over a baseline 1 ms
// latency spike that keeps the run from threading through a single up
// window. Adaptive deadlines (clamped to [15 ms, 25 ms], under the down
// window) abort stalled attempts and re-route them into up windows; the run
// must complete on the device with no fallback.
func runNetFlap(b *kernels.Benchmark, overlap bool, n int, seed int64, clean *cleanNetRun, row *NetChaosKernel) error {
	sched := netsim.NewSchedule().
		Spike(0, time.Hour, time.Millisecond).
		Flap(0, 3*time.Second, 30*time.Millisecond, 3*time.Millisecond)
	nf := storage.NewNetFault(storage.NewMemStore(), sched).SetMode(storage.PartitionHang)
	plugin, err := netChaosPlugin(nf, overlap, func(cfg *offload.CloudConfig) {
		cfg.DeadlineMult = 3
		cfg.DeadlineFloor = 15 * time.Millisecond
		cfg.DeadlineCap = 25 * time.Millisecond
		cfg.RetryMax = 8
	})
	if err != nil {
		return err
	}
	defer plugin.Close()
	rep, outs, err := netChaosRun(b, plugin, n, seed)
	if err != nil {
		return err
	}
	if rep.FellBack {
		return fmt.Errorf("flapping link should be survivable, fell back: %s", rep.FallbackReason)
	}
	row.DeadlineAborts = rep.DeadlineAborts
	row.StorageRetries = rep.StorageRetries
	row.PartitionSeconds = rep.PartitionSeconds
	row.ChaosVirtualS = rep.Total().Seconds()
	if row.PartitionSeconds <= 0 {
		return fmt.Errorf("flap schedule accrued no partition downtime")
	}
	if err := compareOutputs(clean.outs, outs); err != nil {
		return err
	}
	row.Identical = true
	return nil
}

// runNetJitter: 15% of operations draw 40 ms of extra latency — the
// transient-spike case hedged reads exist for. A backup GET launches past
// the observed latency quantile and usually redraws a clean operation,
// winning while the primary sleeps.
func runNetJitter(b *kernels.Benchmark, overlap bool, n int, seed int64, clean *cleanNetRun, row *NetChaosKernel) error {
	sched := netsim.NewSchedule().Jitter(0, time.Hour, 0.15, 40*time.Millisecond)
	nf := storage.NewNetFault(storage.NewMemStore(), sched).SetSeed(uint64(seed)*2 + 1)
	plugin, err := netChaosPlugin(nf, overlap, func(cfg *offload.CloudConfig) {
		cfg.Hedge = true
		cfg.HedgeQuantile = 0.9
	})
	if err != nil {
		return err
	}
	defer plugin.Close()
	rep, outs, err := netChaosRun(b, plugin, n, seed)
	if err != nil {
		return err
	}
	if rep.FellBack {
		return fmt.Errorf("jittery link should be survivable, fell back: %s", rep.FallbackReason)
	}
	row.HedgedGets = rep.HedgedGets
	row.HedgeWins = rep.HedgeWins
	row.StorageRetries = rep.StorageRetries
	row.ChaosVirtualS = rep.Total().Seconds()
	if err := compareOutputs(clean.outs, outs); err != nil {
		return err
	}
	row.Identical = true
	return nil
}

// netChaosScenarios cycle across benchmark x dataflow-mode rows. Every
// scenario runs under both barriered and streaming dataflow across the soak.
var netChaosScenarios = []netChaosScenario{
	{name: "hard-partition", fallback: true, run: runNetPartition},
	{name: "bandwidth-collapse", run: runNetCollapse},
	{name: "flap-deadline", run: runNetFlap},
	{name: "latency-jitter-hedge", run: runNetJitter},
}

// netChaosInflationCap bounds the virtual-makespan inflation the recoverable
// link faults may cost: retried and re-routed chunks bill extra wire time,
// but recovery must stay within 2x of the clean run.
const netChaosInflationCap = 2.0

// runNetChaosRow executes one benchmark clean and then under the scenario's
// link-fault schedule.
func runNetChaosRow(b *kernels.Benchmark, scen netChaosScenario, overlap bool, n int, seed int64) (NetChaosKernel, error) {
	row := NetChaosKernel{Name: b.Name, Scenario: scen.name, Overlap: overlap}

	clean, err := netChaosPlugin(storage.NewMemStore(), overlap, nil)
	if err != nil {
		return row, err
	}
	defer clean.Close()
	cleanRep, cleanOuts, err := netChaosRun(b, clean, n, seed)
	if err != nil {
		return row, fmt.Errorf("%s clean run: %w", b.Name, err)
	}
	row.CleanVirtualS = cleanRep.Total().Seconds()

	ref := &cleanNetRun{rep: cleanRep, outs: cleanOuts}
	if err := scen.run(b, overlap, n, seed, ref, &row); err != nil {
		return row, fmt.Errorf("%s (%s): %w", b.Name, scen.name, err)
	}
	// The recoverable schedules delay and re-route transfers but change no
	// payloads, so the virtual makespan must stay near the clean run's.
	// (Fallback rows run on the host, and the collapse rows' honest
	// comparison is the true-rate one computed above.)
	if !scen.fallback && scen.name != "bandwidth-collapse" &&
		row.CleanVirtualS > 0 && row.ChaosVirtualS > netChaosInflationCap*row.CleanVirtualS {
		return row, fmt.Errorf("%s (%s): virtual makespan inflated %.2fx (clean %.4fs, faulted %.4fs)",
			b.Name, scen.name, row.ChaosVirtualS/row.CleanVirtualS, row.CleanVirtualS, row.ChaosVirtualS)
	}
	return row, nil
}

// RunNetChaosBench executes every benchmark under scheduled link faults
// across both dataflow modes and returns the full soak result set. The
// cycling assigns the unrecoverable hard partition only to single-region
// kernels; the aggregate totals prove every mechanism — deadline aborts,
// hedged reads, degraded-mode switches, and partition-triggered host
// fallback — actually engaged.
func RunNetChaosBench(n int, seed int64) (*NetChaosBench, error) {
	if n <= 0 {
		n = 96
	}
	if seed == 0 {
		seed = 1
	}
	out := &NetChaosBench{N: n, Seed: seed, Cores: netChaosCores}

	single := 0 // cycles all scenarios across the single-region kernels
	multi := 0  // multi-region kernels only get recoverable schedules
	for _, b := range kernels.All {
		for ov := 0; ov < 2; ov++ {
			var scen netChaosScenario
			if b.Regions == 1 {
				scen = netChaosScenarios[single%len(netChaosScenarios)]
				single++
			} else {
				scen = netChaosScenarios[1+multi%(len(netChaosScenarios)-1)]
				multi++
			}
			// The collapse comparison needs bulk matrix payloads: the
			// list workload ships a few hundred wire bytes, below the
			// compression threshold and too few transfers to even warm
			// the rate meter. Give it the flap schedule instead.
			if scen.name == "bandwidth-collapse" && b.Name == "collinear-list" {
				scen = netChaosScenarios[2]
			}
			row, err := runNetChaosRow(b, scen, ov == 0, n, seed)
			if err != nil {
				return nil, err
			}
			out.Kernels = append(out.Kernels, row)
			out.Totals.DeadlineAborts += row.DeadlineAborts
			out.Totals.HedgedGets += row.HedgedGets
			out.Totals.HedgeWins += row.HedgeWins
			out.Totals.DegradedSwitches += row.DegradedSwitches
			out.Totals.RefusedOps += row.RefusedOps
			out.Totals.PartitionSeconds += row.PartitionSeconds
			if row.FellBack {
				out.Totals.Fallbacks++
			}
		}
	}
	if out.Totals.Fallbacks == 0 || out.Totals.DeadlineAborts == 0 ||
		out.Totals.HedgedGets == 0 || out.Totals.HedgeWins == 0 ||
		out.Totals.DegradedSwitches == 0 || out.Totals.PartitionSeconds <= 0 {
		return nil, fmt.Errorf("net-chaos soak missed a resilience mechanism: %+v", out.Totals)
	}
	return out, nil
}
