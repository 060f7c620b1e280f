package offload

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/chunkio"
	"ompcloud/internal/cloud"
	"ompcloud/internal/netsim"
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/resilience"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
	"ompcloud/internal/xcompress"
)

// CloudConfig assembles the cloud device from its substrates. Every field
// mirrors a knob of the paper's plugin: the Spark cluster topology, the
// storage service, the compression policy, the network profile, and the
// optional EC2-style lifecycle management.
type CloudConfig struct {
	Spec    spark.ClusterSpec
	Profile netsim.Profile
	Codec   xcompress.Codec
	Costs   spark.Costs
	JNI     JNI
	Store   storage.Store

	// DeviceName names this device instance. Non-empty names become the
	// plugin's Name(), prefix its storage keys (so two devices sharing a
	// store never collide), and key its metrics (chunk/tile histograms,
	// net.link gauges) via span.DevKey, which is what keeps per-device
	// rates separable when several cloud plugins are live — the
	// multi-device splitter's refinement source. Empty keeps the legacy
	// single-device behaviour: topology-derived name, global metric names.
	DeviceName string

	// Provider, when non-nil, gives the plugin an infrastructure control
	// plane. With AutoStartStop the workers are started before a job and
	// stopped after it, the paper's pay-per-use mode (§III.A).
	Provider      cloud.Provider
	InstanceType  string
	AutoStartStop bool

	// CostCoreHourUSD / CostEgressGiBUSD price the device: dollars per
	// core-hour of effective region time and dollars per GiB of egress
	// (output bytes downloaded back to the host). A priced device stamps
	// Report.CostUSD on every run — the signal the elastic autoscaler's
	// cost-capped policy trades against makespan. 0 leaves the device
	// unpriced (CostUSD stays 0); the conf knobs are cost-core-hour and
	// cost-gib-egress, and cost-core-hour also accepts "auto" to derive
	// the rate from the configured instance type's catalogue price.
	CostCoreHourUSD  float64
	CostEgressGiBUSD float64

	// WorkerAddrs, when non-empty, executes loop tiles in remote worker
	// processes (cmd/ompcloud-worker) at these addresses instead of
	// in-process goroutines — the paper's real process boundary between
	// the Spark executor and the native loop body. Tile-to-worker
	// affinity follows the simulated placement (Eq. 3).
	WorkerAddrs []string

	// EnableCache turns on the content-addressed upload cache (the
	// paper's future-work data caching): inputs already present in cloud
	// storage are not re-sent across the host-target link. With chunking
	// enabled the cache also works at chunk granularity: a
	// partially-changed buffer only resends its dirty chunks.
	EnableCache bool

	// ChunkBytes sets the transfer chunk size of the pipelined data path
	// (chunkio): buffers larger than this are compressed in parallel
	// chunks that stream into storage while later chunks still compress.
	// 0 means chunkio.DefaultChunkSize (1 MiB); negative restores the
	// paper's sequential single-stream policy (one gzip per buffer,
	// upload after compression finishes) for ablations.
	ChunkBytes int
	// ChunkParallel bounds the chunk-compression workers; 0 means all
	// machine cores.
	ChunkParallel int

	// CDC switches the chunked data path to content-defined (Gear rolling
	// hash) chunk boundaries instead of fixed ChunkBytes-sized cuts. Cuts
	// then follow the content, so an insert or prepend only perturbs the
	// chunks around the edit and every other chunk keeps its content hash —
	// the property chunk-granular caching and Dedup need to recognize
	// shifted data. ChunkBytes becomes the target average chunk size.
	// Requires the chunked data path (ChunkBytes >= 0).
	CDC bool

	// Dedup turns on cross-session chunk dedup: a persistent content-
	// addressed index over the store's "cache/c/" namespace, primed by
	// listing the store at first upload, so chunks any earlier session
	// already shipped are never re-sent. Per-job cleanup leaves "cache/"
	// untouched, which is what makes the index durable across sessions.
	// Works with or without EnableCache (EnableCache adds the in-session
	// whole-buffer layer on top). Requires ChunkBytes >= 0.
	Dedup bool

	// Overlap selects the tile-granular streaming dataflow: the workflow's
	// four stages overlap at tile granularity — the Spark task for tile k
	// launches as soon as tile k's input chunks are resident on the
	// driver, and finished tiles are reconstructed, stored, and
	// host-downloaded while later tiles still compute. 0 (the default)
	// enables it whenever the chunked data path is active and the region
	// has more than one tile; negative forces the stage-barriered workflow
	// (the paper's strict Fig. 1 ordering), which is also what ChunkBytes
	// < 0 implies — the sequential policy has no sub-buffer readiness to
	// stream on. Both modes produce bit-identical outputs.
	Overlap int

	// HealthTTL is how long one storage health probe's verdict is
	// trusted by Available(). 0 means DefaultHealthTTL; negative probes
	// on every call (the pre-TTL behaviour, needed by tests that kill
	// the store mid-session and expect the device to notice instantly).
	HealthTTL time.Duration

	// RetryMax is the per-leg attempt budget of the storage data path
	// (first try included): every chunk PUT of the upload legs and every
	// object/chunk GET of the fetch and download legs retries
	// independently up to this budget. 0 means DefaultRetryMax; negative
	// disables retries (one attempt per operation).
	RetryMax int
	// RetryBase is the backoff before a leg's first retry, doubling per
	// further retry with deterministic jitter. 0 means DefaultRetryBase;
	// negative retries immediately (tests, virtual-time benches).
	RetryBase time.Duration
	// RetryCap bounds a single backoff. 0 means DefaultRetryCap.
	RetryCap time.Duration
	// RetryDeadline bounds one leg unit's total attempts plus backoff;
	// 0 means no deadline.
	RetryDeadline time.Duration
	// RetrySeed feeds the deterministic backoff jitter; equal seeds
	// replay identical backoff schedules.
	RetrySeed uint64
	// RetrySleep replaces the backoff clock; nil means time.Sleep.
	RetrySleep func(time.Duration)

	// DeadlineMult derives adaptive per-attempt deadlines for the storage
	// legs from the observed chunk-latency histograms: an attempt is
	// abandoned (and retried) after p99 × DeadlineMult, clamped to
	// [DeadlineFloor, DeadlineCap]. 0 disables attempt deadlines — a stuck
	// stream then holds its chunk until the store gives up on its own.
	DeadlineMult float64
	// DeadlineFloor/DeadlineCap clamp the derived deadline; 0 means
	// DefaultDeadlineFloor/DefaultDeadlineCap.
	DeadlineFloor time.Duration
	DeadlineCap   time.Duration
	// Hedge enables hedged reads on the download legs: a GET stalled past
	// the observed HedgeQuantile latency gets one backup request, first
	// result wins. Off by default — hedging buys tail latency with extra
	// load, a trade the user opts into.
	Hedge bool
	// HedgeQuantile is the observed GET latency quantile past which the
	// backup launches; 0 means DefaultHedgeQuantile.
	HedgeQuantile float64
	// AdaptDegraded enables the degraded-mode transfer ladder: when the
	// store's observed bandwidth (storage.BandwidthObserver) collapses
	// below half the provisioned WAN rate, the adaptive codec re-plans
	// against the observed rate (dense data re-qualifies for compression),
	// chunks shrink for finer re-route granularity, and virtual-time
	// accounting bills the rate transfers actually sustained. Hysteresis
	// (recover past 0.8×) keeps a boundary-hovering link from flapping.
	AdaptDegraded bool

	// BreakerFailures trips the device's circuit breaker after this many
	// consecutive transient workflow failures: Available() then reports
	// false without paying probe round trips or retry timeouts until
	// BreakerCooldown elapses, and one half-open probe decides recovery.
	// 0 means resilience.DefaultBreakerThreshold; negative disables the
	// breaker.
	BreakerFailures int
	// BreakerCooldown is the open period before the half-open probe;
	// 0 means resilience.DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// BreakerNow is the breaker's injected clock (tests); nil means
	// time.Now.
	BreakerNow func() time.Time

	// Fallback selects what the offload manager does when this device
	// fails mid-flight with a transient error: FallbackHost (the
	// default, the paper's dynamic host execution) re-runs the region
	// on the host; FallbackFail surfaces the error to the caller.
	Fallback FallbackPolicy

	// RunOnDriver models the paper's §III.D deployment alternative:
	// "one might run his application directly from the driver node of
	// the Spark cluster, thus removing the overhead of host-target
	// communication". The host's storage legs then ride the intra-
	// cluster LAN instead of the WAN.
	RunOnDriver bool

	// Log, when non-nil, receives the engine and workflow log lines —
	// the paper's option to "print the log messages of Spark to the
	// standard output of the host computer".
	Log spark.Logf

	// Faults optionally injects task failures (tests, chaos benches).
	Faults spark.FaultInjector
	// WorkerFaults optionally injects executor-level failures (worker
	// deaths, heartbeat loss, flapping) into the membership layer.
	WorkerFaults *spark.WorkerFaults
	// RealParallelism bounds the machine cores used for real execution;
	// 0 means all.
	RealParallelism int

	// Heartbeat enables lease-based worker membership: executors renew a
	// lease every Heartbeat of virtual time and a worker that misses
	// LeaseMisses consecutive beats is declared dead, its tasks re-executed
	// on survivors. 0 disables membership (workers never die on their own).
	Heartbeat time.Duration
	// LeaseMisses is the lease budget in missed heartbeats; 0 means
	// spark.DefaultLeaseMisses.
	LeaseMisses int

	// Speculate enables straggler mitigation: tasks running beyond the
	// configured slowdown quantile get one speculative backup copy; the
	// first finisher wins via idempotent result commit.
	Speculate bool
	// SpeculateQuantile is the fraction of a stage's tasks that must have
	// finished before backups launch; 0 means
	// spark.DefaultSpeculationQuantile.
	SpeculateQuantile float64

	// Resume enables resumable offload sessions: a journal persisted
	// through the storage layer records input objects and committed tiles,
	// so a killed-and-restarted run re-executes only uncommitted tiles and
	// (with EnableCache) skips already-uploaded inputs.
	Resume bool
}

// withDefaults fills zero values.
func (c CloudConfig) withDefaults() CloudConfig {
	if c.Profile == (netsim.Profile{}) {
		c.Profile = netsim.DefaultProfile()
	}
	if c.Costs == (spark.Costs{}) {
		c.Costs = spark.DefaultCosts()
	}
	if c.JNI == (JNI{}) {
		c.JNI = DefaultJNI()
	}
	if c.InstanceType == "" {
		c.InstanceType = "c3.8xlarge"
	}
	return c
}

// CloudPlugin is the cloud device: it offloads target regions to the Spark
// engine through the storage service, implementing the eight-step workflow
// of the paper's Fig. 1 with real data movement and virtual-time accounting.
type CloudPlugin struct {
	cfg   CloudConfig
	name  string // fixed at construction: stable across elastic scaling
	sctx  *spark.Context
	cache *uploadCache     // nil unless EnableCache
	pool  *remoteexec.Pool // nil unless WorkerAddrs configured

	// chunkIdx is the persistent cross-session chunk index (nil unless
	// Dedup); idxOnce lazily primes it from the store at first upload.
	// dedupHits/dedupBytes count chunks (and wire bytes) the index kept
	// off the WAN.
	chunkIdx   *storage.ChunkIndex
	idxOnce    sync.Once
	dedupHits  atomic.Int64
	dedupBytes atomic.Int64

	// breaker guards the device against consecutive workflow failures
	// (nil when disabled); healthKey is this plugin's private probe key,
	// so concurrent plugins sharing one store never race on a probe
	// object.
	breaker   *resilience.Breaker
	healthKey string

	mu       sync.Mutex
	cluster  *cloud.Cluster
	initErr  error
	jobSeq   atomic.Int64
	lastCost float64

	// avoidedGets counts manifest GETs skipped via locally-held frames
	// (see CacheStats.AvoidedGets); independent of the content cache.
	avoidedGets atomic.Int64

	// degraded is the degraded-mode latch (see CloudConfig.AdaptDegraded);
	// it outlives a single run — the link, not the job, is what degraded.
	degraded atomic.Bool

	// Cached health verdict (see Available).
	healthMu sync.Mutex
	healthAt time.Time
	healthOK bool
}

// DefaultHealthTTL is how long Available() trusts one storage health probe.
// Long enough that back-to-back jobs don't pay three storage round trips
// each, short enough that a dead store is noticed within a few seconds.
const DefaultHealthTTL = 5 * time.Second

// Defaults of the storage-leg retry policy: three attempts with 25ms-base
// exponential backoff capped at one second — enough to ride out the blip
// faults object stores throw, short enough that a truly dead store fails
// over to the host in well under the breaker cooldown.
const (
	DefaultRetryMax  = 3
	DefaultRetryBase = 25 * time.Millisecond
	DefaultRetryCap  = time.Second
)

// NewCloudPlugin builds and initializes the cloud device. Construction
// itself never fails on unavailable infrastructure: the paper's runtime
// degrades to host execution, so infrastructure errors surface through
// Available(), not the constructor.
func NewCloudPlugin(cfg CloudConfig) (*CloudPlugin, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("offload: cloud plugin needs a storage backend")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	// CDC and Dedup are properties of chunks; the sequential single-stream
	// policy (ChunkBytes < 0) has none, so combining them is a config
	// mistake, not a request for silent no-ops.
	if cfg.CDC && cfg.ChunkBytes < 0 {
		return nil, fmt.Errorf("offload: content-defined chunking needs the chunked data path; use chunk-bytes >= 0, not %d", cfg.ChunkBytes)
	}
	if cfg.Dedup && cfg.ChunkBytes < 0 {
		return nil, fmt.Errorf("offload: dedup needs the chunked data path; use chunk-bytes >= 0, not %d", cfg.ChunkBytes)
	}
	if cfg.RunOnDriver {
		cfg.Profile.WAN = cfg.Profile.LAN
		cfg.Profile.WAN.Name = "lan-as-wan"
	}
	opts := []spark.Option{spark.WithCosts(cfg.Costs)}
	if cfg.Log != nil {
		opts = append(opts, spark.WithLogger(cfg.Log))
	}
	if cfg.Faults != nil {
		opts = append(opts, spark.WithFaults(cfg.Faults))
	}
	if cfg.WorkerFaults != nil {
		opts = append(opts, spark.WithWorkerFaults(cfg.WorkerFaults))
	}
	if cfg.RealParallelism > 0 {
		opts = append(opts, spark.WithRealParallelism(cfg.RealParallelism))
	}
	if cfg.DeviceName != "" {
		opts = append(opts, spark.WithMetricDevice(cfg.DeviceName))
	}
	if cfg.Heartbeat > 0 {
		opts = append(opts, spark.WithLease(spark.LeaseConfig{
			Heartbeat: simtime.FromReal(cfg.Heartbeat),
			Misses:    cfg.LeaseMisses,
		}))
	}
	if cfg.Speculate {
		opts = append(opts, spark.WithSpeculation(spark.SpeculationConfig{
			Enabled:  true,
			Quantile: cfg.SpeculateQuantile,
		}))
	}
	sctx, err := spark.NewContext(cfg.Spec, opts...)
	if err != nil {
		return nil, err
	}
	p := &CloudPlugin{cfg: cfg, sctx: sctx, healthKey: "health/" + randomNonce()}
	p.name = cfg.DeviceName
	if p.name == "" {
		p.name = fmt.Sprintf("cloud-spark-%dx%d", cfg.Spec.Workers, cfg.Spec.CoresPerWorker)
	}
	if cfg.BreakerFailures >= 0 {
		p.breaker = &resilience.Breaker{
			Threshold: cfg.BreakerFailures,
			Cooldown:  cfg.BreakerCooldown,
			Now:       cfg.BreakerNow,
			OnStateChange: func(from, to resilience.BreakerState) {
				span.Event("breaker", "resilience",
					span.Attr{Key: "from", Val: from.String()},
					span.Attr{Key: "to", Val: to.String()})
				span.Metrics().Counter("resilience.breaker.transitions").Inc()
			},
		}
	}
	if cfg.EnableCache {
		p.cache = newUploadCache()
	}
	if cfg.Dedup {
		p.chunkIdx = storage.NewChunkIndex(chunkPrefix)
	}
	p.initErr = p.init()
	if p.initErr == nil && len(cfg.WorkerAddrs) > 0 {
		pool, err := remoteexec.NewPool(cfg.WorkerAddrs)
		if err != nil {
			// Like failed provisioning: the device reports itself
			// unavailable and the manager falls back to the host.
			p.initErr = fmt.Errorf("offload: connecting workers: %w", err)
		} else {
			p.pool = pool
		}
	}
	return p, nil
}

// init provisions the cluster when a provider is configured.
func (p *CloudPlugin) init() error {
	if p.cfg.Provider == nil {
		return nil
	}
	cl, err := cloud.Provision(p.cfg.Provider, p.cfg.InstanceType, p.cfg.Spec.Workers)
	if err != nil {
		return fmt.Errorf("offload: cluster provisioning failed: %w", err)
	}
	p.cluster = cl
	if p.cfg.AutoStartStop {
		// Pay-per-use: park the instances until the first job arrives.
		if err := cl.StopAll(); err != nil {
			return err
		}
	}
	return nil
}

// Name implements Plugin. A configured DeviceName wins; otherwise the name
// is derived from the construction-time topology. Either way it is fixed
// for the plugin's lifetime — metric keys and storage scopes hang off it,
// so elastic scaling must not rename the device.
func (p *CloudPlugin) Name() string { return p.name }

// Cores implements Plugin: the live simulated width — elastic scale events
// change what later regions see (tiling, Eq. 3 seeds, accounting).
func (p *CloudPlugin) Cores() int { return p.sctx.Spec().TotalCores() }

// keyScope is the per-device storage-key segment ("<dev>/" or ""): two named
// devices sharing one store must not collide on job prefixes, since each
// plugin numbers its jobs independently.
func (p *CloudPlugin) keyScope() string {
	if p.cfg.DeviceName == "" {
		return ""
	}
	return p.cfg.DeviceName + "/"
}

// randomNonce returns a short per-plugin identifier for the health-probe
// key. Two plugins over one store must not share a probe object: one's
// Delete would race the other's Get into a spurious "store down" verdict.
func randomNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand is effectively infallible; a distinct fallback
		// string still avoids the shared fixed key.
		return fmt.Sprintf("%p", &b)
	}
	return hex.EncodeToString(b[:])
}

// Available implements Plugin: the device is usable when provisioning
// succeeded, the circuit breaker admits traffic, and the storage service
// answers a health probe. This is what the manager consults for dynamic
// host fallback.
//
// The breaker gate comes first: while open, Available reports false
// without touching storage at all — a tripped device costs nothing until
// the cooldown elapses. The probe itself is a full Put/Get/Delete round
// trip — three RTTs against a remote store — so its verdict is cached for
// HealthTTL: back-to-back jobs reuse one probe instead of paying the round
// trips on every Run call.
func (p *CloudPlugin) Available() bool {
	p.mu.Lock()
	initErr := p.initErr
	p.mu.Unlock()
	if initErr != nil {
		return false
	}
	if p.breaker != nil {
		if !p.breaker.Allow() {
			return false
		}
		if p.breaker.State() == resilience.BreakerHalfOpen {
			// This call holds the breaker's single half-open probe
			// slot: bypass the TTL cache and report the fresh probe's
			// outcome so the breaker can close or re-open.
			ok := p.probeHealth()
			p.healthMu.Lock()
			p.healthOK, p.healthAt = ok, time.Now()
			p.healthMu.Unlock()
			if ok {
				p.breaker.Success()
			} else {
				p.breaker.Failure()
			}
			return ok
		}
	}
	ttl := p.cfg.HealthTTL
	if ttl == 0 {
		ttl = DefaultHealthTTL
	}
	p.healthMu.Lock()
	defer p.healthMu.Unlock()
	if ttl > 0 && !p.healthAt.IsZero() && time.Since(p.healthAt) < ttl {
		return p.healthOK
	}
	p.healthOK = p.probeHealth()
	p.healthAt = time.Now()
	return p.healthOK
}

// probeHealth runs the storage round trip and worker-pool check against
// this plugin's private probe key.
func (p *CloudPlugin) probeHealth() bool {
	if err := p.cfg.Store.Put(p.healthKey, []byte("ok")); err != nil {
		return false
	}
	if _, err := p.cfg.Store.Get(p.healthKey); err != nil {
		return false
	}
	if err := p.cfg.Store.Delete(p.healthKey); err != nil {
		return false
	}
	if p.pool != nil && !p.pool.Healthy() {
		return false
	}
	return true
}

// Breaker exposes the device's circuit breaker (nil when disabled), for
// diagnostics and chaos tests.
func (p *CloudPlugin) Breaker() *resilience.Breaker { return p.breaker }

// FallbackPolicy implements FallbackPolicyProvider: the manager consults it
// to decide between host re-run and error propagation on mid-flight
// transient failures.
func (p *CloudPlugin) FallbackPolicy() FallbackPolicy { return p.cfg.Fallback }

// retryPolicy assembles the per-leg storage retry policy, accumulating
// retry counts into rc for the run's trace report.
func (p *CloudPlugin) retryPolicy(rc *atomic.Int64) resilience.Policy {
	attempts := p.cfg.RetryMax
	switch {
	case attempts == 0:
		attempts = DefaultRetryMax
	case attempts < 0:
		attempts = 1
	}
	base := p.cfg.RetryBase
	switch {
	case base == 0:
		base = DefaultRetryBase
	case base < 0:
		base = 0
	}
	capDelay := p.cfg.RetryCap
	if capDelay == 0 {
		capDelay = DefaultRetryCap
	}
	return resilience.Policy{
		MaxAttempts: attempts,
		BaseDelay:   base,
		CapDelay:    capDelay,
		Deadline:    p.cfg.RetryDeadline,
		Seed:        p.cfg.RetrySeed,
		Sleep:       p.cfg.RetrySleep,
		OnRetry: func(attempt int, err error, backoff time.Duration) {
			if rc != nil {
				rc.Add(1)
			}
			span.Event("storage.retry", "resilience",
				span.Attr{Key: "attempt", Val: strconv.Itoa(attempt)},
				span.Attr{Key: "error", Val: err.Error()},
				span.Attr{Key: "backoff", Val: backoff.String()})
			span.Metrics().Counter("storage.retries").Inc()
			p.logf("offload: storage retry: attempt %d failed (%v), backing off %v", attempt, err, backoff)
		},
	}
}

// Close releases the plugin's external resources (remote worker
// connections). The simulated cluster, if any, is left to its provider.
func (p *CloudPlugin) Close() error {
	if p.pool != nil {
		return p.pool.Close()
	}
	return nil
}

// InitError exposes why provisioning failed, for diagnostics.
func (p *CloudPlugin) InitError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.initErr
}

// Cluster exposes the provisioned cluster (nil without a provider).
func (p *CloudPlugin) Cluster() *cloud.Cluster {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cluster
}

// SparkContext exposes the engine context (metrics, chaos testing).
func (p *CloudPlugin) SparkContext() *spark.Context { return p.sctx }

// CacheStats reports upload-cache effectiveness (zero value when the cache
// is disabled) plus the manifest round trips avoided by frame reuse, which
// accrue regardless of the cache setting.
func (p *CloudPlugin) CacheStats() CacheStats {
	var s CacheStats
	if p.cache != nil {
		s = p.cache.stats()
	}
	s.AvoidedGets = p.avoidedGets.Load()
	s.DedupHits = p.dedupHits.Load()
	s.DedupBytes = p.dedupBytes.Load()
	return s
}

// logf emits a workflow log line when a logger is configured.
func (p *CloudPlugin) logf(format string, args ...any) {
	if p.cfg.Log != nil {
		p.cfg.Log(format, args...)
	}
}

// tileResult is one task's output set travelling from workers to driver.
type tileResult struct {
	tile int
	outs [][]byte
}

// Run implements Plugin: the full Fig. 1 workflow, wrapped in the breaker
// feedback loop — a completed workflow closes the breaker and resets its
// failure streak, a transient mid-flight failure counts toward the trip
// threshold. Permanent and unclassified errors are not device-health
// signals (a missing kernel or a validation error says nothing about the
// cloud) and leave the breaker untouched.
func (p *CloudPlugin) Run(r *Region) (*trace.Report, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if !p.Available() {
		return nil, resilience.MarkTransient(fmt.Errorf("offload: cloud device unavailable (use the manager for host fallback)"))
	}
	p.completeDrain() // a region boundary: land any deferred scale-in first
	rep, err := p.runWorkflow(r)
	if err == nil {
		p.applyCost(rep)
	}
	if p.breaker != nil {
		switch {
		case err == nil:
			p.breaker.Success()
		case resilience.IsTransient(err):
			p.breaker.Failure()
		}
	}
	return rep, err
}

// runWorkflow executes steps 1-8 of Fig. 1 for one region.
func (p *CloudPlugin) runWorkflow(r *Region) (*trace.Report, error) {
	rep := trace.NewReport(p.Name(), r.Kernel)
	rep.Cores = p.Cores()
	tiles := r.TileCount(p.Cores())
	rep.Tiles = tiles
	if tiles == 0 {
		for l := range r.Outs {
			if !r.Outs[l].Partitioned() {
				copy(r.Outs[l].Data, reduceIdentity(r.Outs[l].Reduce, len(r.Outs[l].Data)))
			}
		}
		return rep, nil
	}

	if p.cfg.AutoStartStop && p.cluster != nil {
		if err := p.startCluster(); err != nil {
			return nil, err
		}
		defer p.stopCluster()
	}

	jobID := p.jobSeq.Add(1)
	prefix := fmt.Sprintf("jobs/%s%06d", p.keyScope(), jobID)
	defer p.cleanup(prefix)
	p.logf("offload: job %s: offloading %s (N=%d, %d tiles) to %s", prefix, r.Kernel, r.N, tiles, p.Name())

	// Wall-clock region span on the host track; the four Fig. 1 legs hang
	// under it so a trace shows measured time next to the modelled timeline.
	region := span.Start("offload.region "+r.Kernel, "offload", 0)
	region.SetAttr("job", prefix)
	region.SetAttr("tiles", strconv.Itoa(tiles))
	defer region.End()

	// One accounting block spans the run's four storage legs (retries,
	// deadline aborts, hedges, degraded-mode switches); it lands in the
	// trace report so chaos soaks can see recovery work. Its context
	// cancels stragglers when the workflow unwinds.
	rs, cancel := newRunStats()
	defer cancel()
	partBase := p.partitionBase()

	// Resumable session: loads an interrupted predecessor's journal (cache
	// priming + committed-tile set) or starts fresh bookkeeping.
	var sess *session
	if p.cfg.Resume {
		inputs := make([][]byte, len(r.Ins))
		for k := range r.Ins {
			inputs[k] = r.Ins[k].Data
		}
		sess = p.openSession(r, tiles, inputs)
	}

	if p.streaming() && tiles > 1 {
		return p.streamWorkflow(rep, r, tiles, prefix, rs, sess)
	}

	// Steps 1-2: compress and upload every input on its own goroutine.
	leg := span.Start("leg.upload", "offload", 0)
	up, err := p.uploadInputs(prefix, r, rs)
	leg.End()
	if err != nil {
		return nil, err
	}
	if sess != nil {
		// Inputs are durable: journal them so a killed run's successor can
		// skip the upload leg.
		sess.writeJournal(r, up.keys, up.wire)
	}

	// Step 3: the driver fetches and decodes the inputs.
	leg = span.Start("leg.fetch", "offload", 0)
	decoded, driverDecompress, err := p.driverFetch(up.keys, r, rs)
	leg.End()
	if err != nil {
		return nil, err
	}

	// Steps 4-6: build and run the Spark job.
	leg = span.Start("leg.spark", "offload", 0)
	parts, jm, tileRaw, err := p.runSparkJob(r, tiles, decoded, sess)
	leg.End()
	if err != nil {
		return nil, err
	}

	// Step 7: reconstruct outputs on the driver and write them back to
	// storage (encoded), measuring the codec work. The memo keeps the
	// manifests this process writes, so step 8 does not pay a round trip
	// re-reading metadata it authored.
	memo := newManifestMemo()
	leg = span.Start("leg.store", "offload", 0)
	outWire, driverCompress, err := p.reconstructAndStore(prefix, r, tiles, parts, rs, memo)
	leg.End()
	if err != nil {
		return nil, err
	}

	// Step 8: the host downloads and decodes the outputs.
	leg = span.Start("leg.download", "offload", 0)
	hostDecompress, err := p.downloadOutputs(prefix, r, rs, memo)
	leg.End()
	if err != nil {
		return nil, err
	}
	p.applyNetCounters(rep, rs, partBase)
	p.logf("offload: job %s: done (%d cache hits, %d task failures, %d storage retries)",
		prefix, up.hits, jm.Failures, rep.StorageRetries)

	// Virtual-time accounting over the whole workflow.
	ci := p.costInputs(r, tiles, jm, up.wire, outWire, tileRaw,
		up.compress, hostDecompress, driverDecompress+driverCompress)
	ci.InWireSizes = up.sent
	ci.FetchWireSizes = up.wire
	if err := Account(p.accountProfile(), ci, rep); err != nil {
		return nil, err
	}
	applyEngineCounters(rep, jm, sess)
	if sess != nil {
		sess.finish()
	}
	return rep, nil
}

// applyEngineCounters copies a job's fault-tolerance counters into the
// region report.
func applyEngineCounters(rep *trace.Report, jm *spark.JobMetrics, sess *session) {
	rep.TaskFailures = jm.Failures
	rep.ReexecutedTasks = jm.Reexecuted
	rep.SpeculativeWins = jm.SpeculativeWins
	rep.SpeculativeLosses = jm.SpeculativeLosses
	rep.DeadWorkers = jm.DeadWorkers
	if sess != nil {
		rep.ResumedTiles = sess.resumedTiles()
	}
}

// pipelined reports whether the chunked streaming engine is active (the
// default). ChunkBytes < 0 selects the paper's original sequential policy.
func (p *CloudPlugin) pipelined() bool { return p.cfg.ChunkBytes >= 0 }

// streaming reports whether the tile-granular streaming dataflow is active:
// the chunked data path must be on (sub-buffer readiness needs chunks) and
// the overlap knob not forced off.
func (p *CloudPlugin) streaming() bool { return p.pipelined() && p.cfg.Overlap >= 0 }

// manifestMemo retains the manifest frames one run writes, so the same
// process's later reads skip the round trip (CacheStats.AvoidedGets). It is
// scoped to a run: keys are per-job prefixed, and holding frames across
// jobs would risk serving stale metadata after a store wipe.
type manifestMemo struct {
	mu     sync.Mutex
	frames map[string][]byte
}

func newManifestMemo() *manifestMemo {
	return &manifestMemo{frames: make(map[string][]byte)}
}

func (m *manifestMemo) store(key string, frame []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frames[key] = frame
}

func (m *manifestMemo) lookup(key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.frames[key]
	return f, ok
}

// chunkOpts assembles the transfer-engine options, including the per-leg
// retry policy (rs accumulates the run's resilience accounting). withCache
// additionally wires the chunk-granular content-addressed cache hooks, so
// clean chunks of a partially-changed buffer are recognized and not
// re-sent.
func (p *CloudPlugin) chunkOpts(withCache bool, rs *runStats) chunkio.Options {
	o := chunkio.Options{
		Codec:     p.cfg.Codec,
		ChunkSize: p.cfg.ChunkBytes,
		Parallel:  p.cfg.ChunkParallel,
		CDC:       p.cfg.CDC,
		// The adaptive codec weighs compression speed against the
		// host-target link; the upload legs ride the (possibly
		// RunOnDriver-rewritten) WAN.
		WireBytesPerS: p.cfg.Profile.WAN.BitsPerSs / 8,
		// Content-addressed chunk keys carry their own content hash;
		// verifying decoded bytes against it turns a corrupt cached chunk
		// into a transient retry instead of silently reused wrong data.
		// Non-content keys (per-job part keys) are not affected.
		ChunkSum:     chunkSumOf,
		Retry:        p.retryPolicy(&rs.retries),
		Ctx:          rs.ctx,
		Stats:        &rs.xfer,
		MetricDevice: p.cfg.DeviceName,
	}
	o.PutTimeout, o.GetTimeout = p.legDeadlines()
	o.HedgeDelay = p.hedgeDelay()
	// Degraded mode re-plans this leg around the rate the link actually
	// sustains: the codec verdict sees the observed (not provisioned)
	// bandwidth, so dense data re-qualifies for compression, and chunks
	// shrink so a refused or abandoned attempt wastes less.
	if obs := p.updateDegraded(rs); p.cfg.AdaptDegraded && p.degraded.Load() && obs > 0 {
		o.WireBytesPerS = obs
		o.ChunkSize = degradedChunkBytes(p.cfg.ChunkBytes)
	}
	if withCache && (p.cache != nil || p.chunkIdx != nil) {
		if p.chunkIdx != nil {
			p.primeIndex()
		}
		o.ChunkKey = chunkContentKey
		o.Have = p.chunkHave
		o.OnStored = p.rememberChunk
	}
	return o
}

// primeIndex loads the persistent chunk index from the store, once per
// plugin: a fresh session discovers the chunks earlier sessions left under
// "cache/c/" and reuses them instead of re-sending. A failed Load is
// non-fatal — the index is an availability hint, and an empty one only
// costs re-uploads.
func (p *CloudPlugin) primeIndex() {
	p.idxOnce.Do(func() {
		if n, err := p.chunkIdx.Load(p.cfg.Store); err == nil && n > 0 {
			span.Metrics().Counter("cache.dedup.indexed").Add(int64(n))
		}
	})
}

// chunkHave answers the engine's "is this chunk already stored?" query from
// the session chunk cache and, with Dedup, the persistent cross-session
// index — verifying against the store before trusting either, since stores
// can be wiped between jobs. Index hits are what dedup saves: chunks some
// earlier session (or earlier upload with no session cache) shipped.
func (p *CloudPlugin) chunkHave(key string) (int64, bool) {
	wire, ok := int64(0), false
	if p.cache != nil {
		wire, ok = p.cache.lookupChunk(key)
	}
	fromIdx := false
	if !ok && p.chunkIdx != nil && p.chunkIdx.Have(key) {
		wire, ok = p.chunkIdx.WireSize(key)
		fromIdx = ok
	}
	if !ok {
		return 0, false
	}
	if _, err := p.cfg.Store.Stat(key); err != nil {
		if p.cache != nil {
			p.cache.forgetChunk(key)
		}
		if p.chunkIdx != nil {
			p.chunkIdx.Forget(key)
		}
		return 0, false
	}
	if fromIdx {
		p.dedupHits.Add(1)
		p.dedupBytes.Add(wire)
		m := span.Metrics()
		m.Counter("cache.dedup.hits").Inc()
		m.Counter("cache.dedup.bytes").Add(wire)
	}
	return wire, true
}

// rememberChunk records a freshly stored chunk with the session cache and
// the persistent index, so both within-run repeats and future sessions
// recognize it.
func (p *CloudPlugin) rememberChunk(key string, wire int64) {
	if p.cache != nil {
		p.cache.rememberChunk(key, wire)
	}
	if p.chunkIdx != nil {
		p.chunkIdx.Remember(key, wire)
	}
}

// uploadResult describes one input buffer's journey to cloud storage.
type uploadResult struct {
	keys []string // storage key per buffer (driver fetches these)
	wire []int64  // per-buffer wire size (intra-cluster accounting)
	// sent lists the wire sizes that actually crossed the WAN this time;
	// cache hits (whole buffers and clean chunks) are absent.
	sent     []int64
	compress simtime.Duration
	hits     int
}

// uploadInputs encodes and stores every input buffer concurrently through
// the chunked transfer engine, returning per-buffer storage keys and wire
// sizes plus the virtual host compression time (max across the parallel
// per-buffer streams, §III.A; each stream's own cost already reflects its
// parallel chunk compression). With the upload cache enabled, buffers whose
// contents are already in cloud storage are not re-sent — the paper's
// future-work data caching — and partially-changed buffers resend only
// their dirty chunks.
func (p *CloudPlugin) uploadInputs(prefix string, r *Region, rs *runStats) (*uploadResult, error) {
	res := &uploadResult{
		keys: make([]string, len(r.Ins)),
		wire: make([]int64, len(r.Ins)),
	}
	durs := make([]time.Duration, len(r.Ins))
	sent := make([]int64, len(r.Ins))
	errs := make([]error, len(r.Ins))
	cached := make([]bool, len(r.Ins))
	var wg sync.WaitGroup
	for k := range r.Ins {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			key := prefix + "/in/" + r.Ins[k].Name
			if p.cache != nil {
				key = contentKey(r.Ins[k].Data)
				if wireSize, ok := p.cache.lookup(key); ok {
					// Verify the object still exists before trusting
					// the cache: stores can be wiped between jobs.
					if _, err := p.cfg.Store.Stat(key); err == nil {
						res.keys[k] = key
						res.wire[k] = wireSize
						cached[k] = true
						return
					}
					p.cache.forget(key)
				}
			}
			up, err := chunkio.Upload(p.cfg.Store, key, r.Ins[k].Data, p.chunkOpts(true, rs))
			if err != nil {
				errs[k] = err
				return
			}
			res.keys[k] = key
			res.wire[k] = up.TotalWire
			sent[k] = up.SentWire
			durs[k] = up.CompressWall
			if p.cache != nil {
				p.cache.remember(key, up.TotalWire)
			}
		}(k)
	}
	wg.Wait()
	var compress time.Duration
	for k := range r.Ins {
		if errs[k] != nil {
			return nil, fmt.Errorf("offload: uploading %s: %w", r.Ins[k].Name, errs[k])
		}
		if cached[k] {
			res.hits++
			continue
		}
		res.sent = append(res.sent, sent[k])
		if durs[k] > compress {
			compress = durs[k]
		}
	}
	res.compress = simtime.FromReal(compress)
	return res, nil
}

// driverFetch reads the inputs back from storage and decodes them, the
// driver side of step 3. Buffers decode on parallel goroutines (one stream
// per datum, the paper's §III.A transfer policy), so the virtual cost is
// the slowest stream; within a stream, chunked objects fetch and decompress
// their parts concurrently through the transfer engine.
func (p *CloudPlugin) driverFetch(keys []string, r *Region, rs *runStats) ([][]byte, simtime.Duration, error) {
	decoded := make([][]byte, len(r.Ins))
	durs := make([]time.Duration, len(r.Ins))
	errs := make([]error, len(r.Ins))
	var wg sync.WaitGroup
	for k := range r.Ins {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			raw, down, err := chunkio.Download(p.cfg.Store, keys[k], p.chunkOpts(false, rs))
			if err != nil {
				errs[k] = fmt.Errorf("fetching: %w", err)
				return
			}
			durs[k] = down.DecompressWall
			if len(raw) != len(r.Ins[k].Data) {
				errs[k] = fmt.Errorf("decoded to %d bytes, want %d", len(raw), len(r.Ins[k].Data))
				return
			}
			decoded[k] = raw
		}(k)
	}
	wg.Wait()
	var max time.Duration
	for k := range r.Ins {
		if errs[k] != nil {
			return nil, 0, fmt.Errorf("offload: driver input %s: %w", r.Ins[k].Name, errs[k])
		}
		if durs[k] > max {
			max = durs[k]
		}
	}
	return decoded, simtime.FromReal(max), nil
}

// tileBytes reports the raw bytes task p marshals across the JNI boundary.
func tileBytes(r *Region, tiles, p int) int64 {
	lo, hi := TileRange(r.N, tiles, p)
	var n int64
	for k := range r.Ins {
		if r.Ins[k].Partitioned() {
			n += (hi - lo) * r.Ins[k].BytesPerIter
		} else {
			n += int64(len(r.Ins[k].Data))
		}
	}
	for l := range r.Outs {
		if r.Outs[l].Partitioned() {
			n += (hi - lo) * r.Outs[l].BytesPerIter
		} else {
			n += int64(len(r.Outs[l].Data))
		}
	}
	return n
}

// runSparkJob distributes the tiled loop over the cluster (Eq. 1-7): one
// RDD partition per tile, partitioned inputs sliced per tile, unpartitioned
// inputs broadcast, and the loop body invoked through the fat-binary
// registry (the JNI analog).
func (p *CloudPlugin) runSparkJob(r *Region, tiles int, decoded [][]byte, sess *session) ([][]tileResult, *spark.JobMetrics, int64, error) {
	return p.runSparkJobWith(r, tiles, decoded, nil, nil, sess)
}

// runSparkJobWith is runSparkJob with the streaming dataflow's two hooks:
// sched (non-nil) gates each tile's task on its input readiness and aborts
// queued tiles once the transfer side has failed; sink (non-nil) receives
// each tile's result the moment its task succeeds, while others still run.
// sess (non-nil) makes the job resumable: tiles already committed by an
// interrupted predecessor are served from storage, and every finished tile
// commits its outputs before the result flows onward.
func (p *CloudPlugin) runSparkJobWith(r *Region, tiles int, decoded [][]byte, sched *tileSched, sink func(p int, items []tileResult), sess *session) ([][]tileResult, *spark.JobMetrics, int64, error) {
	reg := r.registry()
	// Broadcast the unpartitioned inputs so the engine's accounting sees
	// them; partitioned inputs are captured per tile by the closure,
	// standing in for the scatter of Eq. 3.
	type bcastIns struct{ bufs [][]byte }
	unpart := make([][]byte, len(r.Ins))
	var bcastRaw int64
	for k := range r.Ins {
		if !r.Ins[k].Partitioned() {
			unpart[k] = decoded[k]
			bcastRaw += int64(len(decoded[k]))
		}
	}
	// With remote workers, each broadcast input is hashed once per job
	// into its content key, so that a worker connection receives its
	// bytes once and later tiles carry only the key. The first tile to
	// ship hashes: under the streaming dataflow the buffers are still
	// filling when the job starts, and a tile's gate opens only once
	// every broadcast input is whole.
	var keys func() []remoteexec.Key
	if p.pool != nil {
		keys = sync.OnceValue(func() []remoteexec.Key {
			var ks []remoteexec.Key // nil: no broadcast inputs
			for k := range r.Ins {
				if !r.Ins[k].Partitioned() {
					if ks == nil {
						ks = make([]remoteexec.Key, len(r.Ins))
					}
					ks[k] = remoteexec.KeyOf(decoded[k])
				}
			}
			return ks
		})
	}
	bc := spark.NewBroadcast(p.sctx, bcastIns{bufs: unpart}, bcastRaw)

	rdd, err := spark.Range(p.sctx, int64(tiles), tiles)
	if err != nil {
		return nil, nil, 0, err
	}
	job := spark.MapPartitions(rdd, func(part int, _ []int64) ([]tileResult, error) {
		if sched != nil {
			// The gate has opened, but possibly because the transfer side
			// failed and released everything: abort instead of computing
			// on incomplete inputs.
			if err := sched.Err(); err != nil {
				return nil, err
			}
		}
		if sess != nil {
			if outs, ok := sess.lookupTile(part, len(r.Outs)); ok {
				return []tileResult{{tile: part, outs: outs}}, nil
			}
		}
		lo, hi := TileRange(r.N, tiles, part)
		ins := make([][]byte, len(r.Ins))
		for k := range r.Ins {
			if r.Ins[k].Partitioned() {
				ins[k] = decoded[k][lo*r.Ins[k].BytesPerIter : hi*r.Ins[k].BytesPerIter]
			} else {
				ins[k] = bc.Value().bufs[k]
			}
		}
		outSizes := make([]int64, len(r.Outs))
		outInit := make([]byte, len(r.Outs))
		for l := range r.Outs {
			if r.Outs[l].Partitioned() {
				outSizes[l] = (hi - lo) * r.Outs[l].BytesPerIter
			} else {
				outSizes[l] = int64(len(r.Outs[l].Data))
				switch r.Outs[l].Reduce {
				case ReduceMaxF32:
					outInit[l] = remoteexec.InitNegInfF
				case ReduceMinF32:
					outInit[l] = remoteexec.InitPosInfF
				}
			}
		}
		if p.pool != nil {
			// Ship the tile to its assigned remote worker process —
			// the JNI boundary made literal.
			worker := p.sctx.PartitionWorker(part, tiles)
			outs, err := p.pool.Run(worker, &remoteexec.TileRequest{
				Kernel: r.Kernel, Lo: r.Base + lo, Hi: r.Base + hi, Scalars: r.Scalars,
				Ins: ins, Keys: keys(), OutSizes: outSizes, OutInit: outInit,
			})
			if err != nil {
				return nil, err
			}
			if sess != nil {
				sess.commitTile(part, outs)
			}
			return []tileResult{{tile: part, outs: outs}}, nil
		}
		outs := make([][]byte, len(r.Outs))
		for l := range r.Outs {
			if r.Outs[l].Partitioned() {
				outs[l] = make([]byte, outSizes[l])
			} else {
				outs[l] = reduceIdentity(r.Outs[l].Reduce, len(r.Outs[l].Data))
			}
		}
		if err := reg.Invoke(r.Kernel, r.Base+lo, r.Base+hi, r.Scalars, ins, outs); err != nil {
			return nil, err
		}
		if sess != nil {
			sess.commitTile(part, outs)
		}
		return []tileResult{{tile: part, outs: outs}}, nil
	})
	if sched != nil {
		job = spark.Gated(job, sched.gate)
	}
	parts, jm, err := job.CollectPartitionsEach(sink)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("offload: spark job: %w", err)
	}
	// Total raw output bytes produced by the tasks (reconstruction input).
	var tileRaw int64
	for _, part := range parts {
		for _, tr := range part {
			for _, o := range tr.outs {
				tileRaw += int64(len(o))
			}
		}
	}
	return parts, jm, tileRaw, nil
}

// reconstruct rebuilds each output on the driver (Eq. 8): offset writes for
// partitioned outputs, reductions otherwise.
func reconstruct(r *Region, tiles int, parts [][]tileResult) ([][]byte, error) {
	finals := make([][]byte, len(r.Outs))
	for l := range r.Outs {
		finals[l] = reduceIdentity(r.Outs[l].Reduce, len(r.Outs[l].Data))
	}
	for _, part := range parts {
		for _, tr := range part {
			lo, hi := TileRange(r.N, tiles, tr.tile)
			for l := range r.Outs {
				if r.Outs[l].Partitioned() {
					copy(finals[l][lo*r.Outs[l].BytesPerIter:hi*r.Outs[l].BytesPerIter], tr.outs[l])
				} else if err := combine(r.Outs[l].Reduce, finals[l], tr.outs[l]); err != nil {
					return nil, err
				}
			}
		}
	}
	return finals, nil
}

// storeOutputs encodes the reconstructed outputs and writes them to cloud
// storage (step 7) through the transfer engine, measuring the driver's
// codec work (summed across the serial per-buffer loop; each term already
// reflects within-buffer parallel chunk compression).
func (p *CloudPlugin) storeOutputs(prefix string, r *Region, finals [][]byte, rs *runStats, memo *manifestMemo) ([]int64, simtime.Duration, error) {
	wire := make([]int64, len(r.Outs))
	var compress time.Duration
	for l := range r.Outs {
		o := p.chunkOpts(false, rs)
		if memo != nil {
			o.OnManifest = memo.store
		}
		up, err := chunkio.Upload(p.cfg.Store, prefix+"/out/"+r.Outs[l].Name, finals[l], o)
		if err != nil {
			return nil, 0, fmt.Errorf("offload: storing output %s: %w", r.Outs[l].Name, err)
		}
		wire[l] = up.TotalWire
		compress += up.CompressWall
	}
	return wire, simtime.FromReal(compress), nil
}

// reconstructAndStore composes reconstruct and storeOutputs for a
// standalone region run.
func (p *CloudPlugin) reconstructAndStore(prefix string, r *Region, tiles int, parts [][]tileResult, rs *runStats, memo *manifestMemo) ([]int64, simtime.Duration, error) {
	finals, err := reconstruct(r, tiles, parts)
	if err != nil {
		return nil, 0, err
	}
	return p.storeOutputs(prefix, r, finals, rs, memo)
}

// downloadOutputs brings the results back to the host buffers (step 8),
// decoding in parallel, one stream per buffer; chunked objects additionally
// fetch and decompress their parts concurrently within the stream.
func (p *CloudPlugin) downloadOutputs(prefix string, r *Region, rs *runStats, memo *manifestMemo) (simtime.Duration, error) {
	durs := make([]time.Duration, len(r.Outs))
	errs := make([]error, len(r.Outs))
	var wg sync.WaitGroup
	for l := range r.Outs {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			o := p.chunkOpts(false, rs)
			if memo != nil {
				o.HaveObject = memo.lookup
			}
			raw, down, err := chunkio.Download(p.cfg.Store, prefix+"/out/"+r.Outs[l].Name, o)
			if err != nil {
				errs[l] = err
				return
			}
			if down.RootCached {
				p.avoidedGets.Add(1)
			}
			durs[l] = down.DecompressWall
			if len(raw) != len(r.Outs[l].Data) {
				errs[l] = fmt.Errorf("output %s decoded to %d bytes, want %d", r.Outs[l].Name, len(raw), len(r.Outs[l].Data))
				return
			}
			copy(r.Outs[l].Data, raw)
		}(l)
	}
	wg.Wait()
	var max time.Duration
	for l := range r.Outs {
		if errs[l] != nil {
			return 0, fmt.Errorf("offload: downloading %s: %w", r.Outs[l].Name, errs[l])
		}
		if durs[l] > max {
			max = durs[l]
		}
	}
	return simtime.FromReal(max), nil
}

// costInputs assembles the accounting inputs from the measured run.
func (p *CloudPlugin) costInputs(r *Region, tiles int, jm *spark.JobMetrics,
	inWire, outWire []int64, tileRaw int64,
	hostCompress, hostDecompress, driverCodec simtime.Duration) CostInputs {

	taskCompute := make([]simtime.Duration, tiles)
	taskEffective := make([]simtime.Duration, tiles)
	for i, tm := range jm.Tasks {
		jni := p.cfg.JNI.PerCall(tileBytes(r, tiles, i))
		taskCompute[i] = tm.Compute + jni
		taskEffective[i] = tm.Effective + jni
	}

	// Intra-cluster wire volumes use the real measured compression
	// ratios: Spark compresses everything it ships over the LAN, which
	// is what makes dense inputs so much more expensive than sparse ones.
	var distWire, bcastWire int64
	for k := 0; k < len(r.Ins) && k < len(inWire); k++ {
		if len(r.Ins[k].Data) == 0 {
			continue
		}
		if r.Ins[k].Partitioned() {
			distWire += inWire[k]
		} else {
			bcastWire += inWire[k]
		}
	}

	// Collected bytes: every tile ships its outputs to the driver,
	// compressed at the output's measured ratio.
	var collectWire int64
	outRaw := r.OutBytesRaw()
	if outRaw > 0 && tileRaw > 0 {
		var sumRatio float64
		for l := 0; l < len(r.Outs) && l < len(outWire); l++ {
			if len(r.Outs[l].Data) == 0 {
				continue
			}
			sumRatio += float64(outWire[l]) / float64(outRaw)
		}
		collectWire = int64(float64(tileRaw) * sumRatio)
	}

	spec := p.sctx.Spec()
	return CostInputs{
		Workers:            spec.Workers,
		Cores:              spec.TotalCores(),
		PipelinedTransfers: p.pipelined(),
		TaskCompute:        taskCompute,
		TaskEffective:      taskEffective,
		Tasks:              jm.Tasks,
		InWireSizes:        inWire,
		OutWireSizes:       outWire,
		HostCompress:       hostCompress,
		HostDecompress:     hostDecompress,
		DriverDecompress:   driverCodec,
		DistributeWire:     distWire,
		BroadcastWire:      bcastWire,
		CollectWire:        collectWire,
		ReconstructRaw:     tileRaw,
		Costs:              p.cfg.Costs,
	}
}

// cleanup deletes the job's objects, best effort.
func (p *CloudPlugin) cleanup(prefix string) {
	keys, err := p.cfg.Store.List(prefix)
	if err != nil {
		return
	}
	for _, k := range keys {
		_ = p.cfg.Store.Delete(k)
	}
}

// startCluster brings stopped workers back for a job (pay-per-use start).
func (p *CloudPlugin) startCluster() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	insts := append([]*cloud.Instance{p.cluster.Driver}, p.cluster.Workers...)
	for _, inst := range insts {
		if inst.State() == cloud.Stopped {
			if err := p.cfg.Provider.Start(inst); err != nil {
				return fmt.Errorf("offload: starting %s: %w", inst.ID, err)
			}
		}
	}
	return nil
}

// stopCluster parks the instances after a job (pay-per-use stop).
func (p *CloudPlugin) stopCluster() {
	p.mu.Lock()
	defer p.mu.Unlock()
	insts := append([]*cloud.Instance{p.cluster.Driver}, p.cluster.Workers...)
	for _, inst := range insts {
		if inst.State() == cloud.Running {
			if err := p.cfg.Provider.Stop(inst); err != nil && !errors.Is(err, cloud.ErrBadCredentials) {
				// Best effort: a stop failure leaves the instance
				// billable but does not fail the completed job.
				continue
			}
		}
	}
	p.lastCost = p.cluster.Cost()
}

// AccumulatedCost reports the cluster cost after the last job (0 without a
// provider).
func (p *CloudPlugin) AccumulatedCost() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cluster == nil {
		return 0
	}
	return p.cluster.Cost()
}

var _ Plugin = (*CloudPlugin)(nil)
