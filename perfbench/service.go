package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/kernels"
	"ompcloud/internal/omp"
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/serve"
	"ompcloud/internal/storage"
)

// The service workload runs the offload daemon in-process on real TCP, as
// ompcloud-offloadd builds it, with two registered remote workers and two
// tenants, each driven by one closed-loop client on its own connection.
// One op is one submitted job.

var serviceTenants = []string{"alpha", "beta"}

const (
	serviceWorkers     = 2
	serviceWorkerCores = 8
	serviceChunkBytes  = 4096 // ompcloud-offloadd's chunk size
	// serviceQuota is each tenant's rate and burst, in jobs per second:
	// far above what one closed-loop client offers, so a rejection is a
	// failure, not admission control at work.
	serviceQuota = 10000
	// serviceSeeds is how many input seeds each job kind draws from.
	serviceSeeds = 2
	heartbeat    = time.Second
)

// serviceKinds is the job mix: broadcast-heavy dense gemm, sparse syrk
// and 2mm that make the codec work, and compute-bound collinear-list with
// tiny data.
var serviceKinds = []serve.JobSpec{
	{Bench: "gemm", N: 256, Kind: "dense"},
	{Bench: "syrk", N: 256, Kind: "sparse"},
	{Bench: "2mm", N: 192, Kind: "sparse"},
	{Bench: "collinear-list", N: 256, Kind: "dense"},
}

// A lone queued job is granted every free core, so in the closed loop the
// two clients' jobs run strictly in turn: each job waits for the other
// client's job, and its latency depends on that ordered pair of kinds.
// The clients' lists therefore interleave into a de Bruijn sequence, which
// holds every ordered pair of kinds once per cycle. Every run then has the
// same mix of pairs, and the latency percentiles do not move with the seed.
var pairCycle = []int{0, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 3, 2, 2, 3, 3}

// jobListLen is each client's list length; a 30 s run uses about a third.
const jobListLen = 1024

// jobLists draws the two clients' fixed job lists from the seed: the first
// client takes the even positions of the pair cycle and the second the odd
// ones, under a seeded relabelling of the kinds and a seeded rotation, and
// each job draws one of serviceSeeds input seeds for its kind.
func jobLists(seed int64) [2][]serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(len(serviceKinds))
	rot := rng.Intn(len(pairCycle))
	var lists [2][]serve.JobSpec
	for i := 0; i < 2*jobListLen; i++ {
		k := label[pairCycle[(rot+i)%len(pairCycle)]]
		spec := serviceKinds[k]
		spec.Seed = seed*100 + int64(k)*10 + int64(rng.Intn(serviceSeeds))
		lists[i%2] = append(lists[i%2], spec)
	}
	return lists
}

// distinctSpecs lists every spec the job lists can hold, in a fixed order.
func distinctSpecs(seed int64) []serve.JobSpec {
	var out []serve.JobSpec
	for k, spec := range serviceKinds {
		for s := 0; s < serviceSeeds; s++ {
			spec.Seed = seed*100 + int64(k)*10 + int64(s)
			out = append(out, spec)
		}
	}
	return out
}

// expectedOutputs runs a spec on the host device and checks it against the
// serial reference; the result is what every job of that spec must return.
func expectedOutputs(spec serve.JobSpec) ([][]float32, error) {
	b, err := kernels.ByName(spec.Bench)
	if err != nil {
		return nil, err
	}
	kind, err := data.ParseKind(spec.Kind)
	if err != nil {
		return nil, err
	}
	rt, err := omp.NewRuntime(16)
	if err != nil {
		return nil, err
	}
	w := b.Prepare(spec.N, kind, spec.Seed)
	if _, err := w.Run(rt, rt.HostDevice()); err != nil {
		return nil, err
	}
	if err := w.Verify(); err != nil {
		return nil, err
	}
	return copyOutputs(w.Outputs()), nil
}

type serviceInst struct {
	seed     int64
	store    *storeProbe // nil unless probed
	daemon   *serve.Daemon
	front    *serve.Front
	exec     *execProbe
	workers  []*remoteexec.Worker
	timing   []*timingRegistry // nil unless probed
	relays   []*relay          // nil unless probed
	clients  []*serve.Client
	beat     *serve.Client
	stopBeat chan struct{}
	beatDone sync.WaitGroup
	expected map[serve.JobSpec][][]float32
	lists    [2][]serve.JobSpec
}

func setupService(seed int64, probed bool) (instance, error) {
	s := &serviceInst{seed: seed, stopBeat: make(chan struct{})}
	if err := s.start(probed); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serviceInst) start(probed bool) error {
	var st storage.Store = storage.NewMemStore()
	if probed {
		s.store = newStoreProbe(st)
		st = s.store
	}
	lim := serve.Limits{Rate: serviceQuota, Burst: serviceQuota}
	d, err := serve.New(serve.Config{Store: st, Limits: lim})
	if err != nil {
		return err
	}
	s.daemon = d
	pool := &serve.PoolExecutor{Base: st, ChunkBytes: serviceChunkBytes}
	s.exec = newExecProbe(pool)
	front, err := serve.ListenAndServe("127.0.0.1:0", d, s.exec)
	if err != nil {
		return err
	}
	s.front = front
	pool.Workers = func() []string { return d.LiveWorkers(front.Now()) }

	// Workers register through the daemon's own client protocol, as
	// ompcloud-worker -register does; probed runs put a byte-counting
	// relay in front of each and serve kernels from a timing registry.
	if s.beat, err = serve.DialFront(front.Addr()); err != nil {
		return err
	}
	var addrs []string
	for i := 0; i < serviceWorkers; i++ {
		var reg *fatbin.Registry
		if probed {
			tr, err := newTimingRegistry(fatbin.Default)
			if err != nil {
				return err
			}
			s.timing = append(s.timing, tr)
			reg = tr.reg
		}
		w, err := remoteexec.Serve("127.0.0.1:0", reg)
		if err != nil {
			return err
		}
		s.workers = append(s.workers, w)
		addr := w.Addr()
		if probed {
			r, err := newRelay(addr)
			if err != nil {
				return err
			}
			s.relays = append(s.relays, r)
			addr = r.addr()
		}
		if err := s.beat.Register(addr, serviceWorkerCores); err != nil {
			return err
		}
		addrs = append(addrs, addr)
	}
	s.beatDone.Add(1)
	go s.heartbeats(addrs)

	s.expected = make(map[serve.JobSpec][][]float32)
	for _, spec := range distinctSpecs(s.seed) {
		out, err := expectedOutputs(spec)
		if err != nil {
			return fmt.Errorf("expected outputs of %+v: %w", spec, err)
		}
		s.expected[spec] = out
	}
	for range serviceTenants {
		c, err := serve.DialFront(front.Addr())
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	s.lists = jobLists(s.seed)

	// Warm-up: every distinct spec once through the service.
	for i, spec := range distinctSpecs(s.seed) {
		if j := s.submit(0, fmt.Sprintf("warmup-%d", i), spec); !j.ok {
			return fmt.Errorf("warm-up job %+v failed: %s", spec, j.err)
		}
	}
	return nil
}

// heartbeats renews the workers' leases until close.
func (s *serviceInst) heartbeats(addrs []string) {
	defer s.beatDone.Done()
	tick := time.NewTicker(heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-s.stopBeat:
			return
		case <-tick.C:
			for _, a := range addrs {
				known, err := s.beat.Heartbeat(a)
				if err == nil && !known {
					_ = s.beat.Register(a, serviceWorkerCores) // lease lapsed: rejoin
				}
			}
		}
	}
}

func (s *serviceInst) close() {
	close(s.stopBeat)
	s.beatDone.Wait()
	for _, c := range s.clients {
		c.Close()
	}
	if s.beat != nil {
		s.beat.Close()
	}
	if s.front != nil {
		s.front.Close()
	}
	for _, r := range s.relays {
		r.close()
	}
	for _, w := range s.workers {
		w.Close()
	}
}

// jobRecord is one submitted job as the client and the executor probe saw
// it.
type jobRecord struct {
	spec       serve.JobSpec
	send, recv time.Time
	run        execRun
	ran        bool    // the executor probe saw the job
	virtualMS  float64 // Response.VirtualMS
	ok         bool
	rejected   bool
	err        string
}

// submit sends one job on client c under a label unique among the jobs in
// flight, and checks its outputs against the expected ones.
func (s *serviceInst) submit(c int, label string, spec serve.JobSpec) jobRecord {
	j := jobRecord{spec: spec, send: time.Now()}
	resp, err := s.clients[c].Submit(serviceTenants[c], label, spec)
	j.recv = time.Now()
	j.run, j.ran = s.exec.take(label)
	switch {
	case err != nil:
		j.err = err.Error()
	case resp.Status != "done" || !resp.OK:
		j.rejected = resp.Status != "done" && resp.Status != "error"
		j.err = fmt.Sprintf("status %s: %s", resp.Status, resp.Err)
	case !sameBits(resp.Outputs, s.expected[spec]):
		j.err = "outputs differ from the expected outputs"
	default:
		j.ok = true
		j.virtualMS = resp.VirtualMS
	}
	return j
}

func (s *serviceInst) run(d time.Duration, tr *tracing) (*phase, error) {
	base := s.probeCounts()
	ph := newPhase()
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var jobs []jobRecord
	var wg sync.WaitGroup
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	maxQueue := 0
	if tr != nil {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if q := s.daemon.Snapshot().Queued; q > maxQueue {
						maxQueue = q
					}
				}
			}
		}()
	}
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			list := s.lists[c]
			for i := 0; time.Now().Before(deadline); i++ {
				spec := list[i%len(list)]
				j := s.submit(c, fmt.Sprintf("%s-%d", serviceTenants[c], i), spec)
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}(c)
		// The second client starts once the first one's job is running, so
		// the jobs alternate in list order from the first one on.
		for c == 0 && s.daemon.RunningCount() == 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	wg.Wait()
	close(stopSampler)
	samplerDone.Wait()
	ph.finish()

	for _, j := range jobs {
		rec := opRecord{lat: j.recv.Sub(j.send), virtual: j.virtualMS / 1e3, ok: j.ok}
		if rep := j.run.report; rep != nil {
			rec.wire = rep.BytesUploaded + rep.BytesDownloaded
		}
		ph.add(rec)
	}
	if tr == nil {
		return ph, nil
	}
	return ph, s.layers(ph, tr, jobs, base, maxQueue)
}

// probeTotals is a snapshot of the service probes' running totals.
type probeTotals struct {
	calls, busyNS, tiles, wire int64
	store                      storeCounts
}

func (s *serviceInst) probeCounts() probeTotals {
	var p probeTotals
	for _, t := range s.timing {
		p.calls += t.reg.Calls()
		p.busyNS += t.busyNS.Load()
	}
	for _, w := range s.workers {
		p.tiles += w.Served()
	}
	for _, r := range s.relays {
		p.wire += r.up.Load() + r.down.Load()
	}
	if s.store != nil {
		p.store = s.store.counts()
	}
	return p
}

// layers fills the ledger of a traced phase from the probes' totals since
// base and from the recorded spans.
func (s *serviceInst) layers(ph *phase, tr *tracing, jobs []jobRecord, base probeTotals, maxQueue int) error {
	n := float64(len(jobs))
	if n == 0 {
		return fmt.Errorf("no job completed in the traced phase")
	}
	L := ph.layers
	now := s.probeCounts()
	busyNS := now.busyNS - base.busyNS
	L["kernel.calls_per_op"] = float64(now.calls-base.calls) / n
	L["kernel.busy_ms_per_op"] = float64(busyNS) / 1e6 / n
	L["remoteexec.tiles_per_job"] = float64(now.tiles-base.tiles) / n
	L["remoteexec.wire_mb_per_job"] = float64(now.wire-base.wire) / 1e6 / n
	L["serve.queue_depth_max"] = float64(maxQueue)
	now.store.sub(base.store).perOp(L, n)

	var sums reportSums
	var flops, rejected float64
	var admit, execMS, reply []float64
	var execIvs []interval
	for _, j := range jobs {
		if j.rejected {
			rejected++
		}
		if !j.ran {
			continue
		}
		admit = append(admit, ms(j.run.start.Sub(j.send)))
		execMS = append(execMS, ms(j.run.end.Sub(j.run.start)))
		reply = append(reply, ms(j.recv.Sub(j.run.end)))
		execIvs = append(execIvs, interval{tr.offset(j.run.start), tr.offset(j.run.end)})
		rep := j.run.report
		if rep == nil {
			continue
		}
		bm, err := kernels.ByName(j.spec.Bench)
		if err != nil {
			return err
		}
		flops += bm.Ops(j.spec.N)
		in, _ := bm.HostBytes(j.spec.N)
		sums.add(rep, bm.Shape(j.spec.N), in)
	}
	if busyNS > 0 {
		L["kernel.gflops"] = flops / (float64(busyNS) / 1e9) / 1e9
	}
	sums.perOp(L, n)
	L["serve.admit_wait_ms_p50"] = median(admit)
	L["serve.exec_ms_p50"] = median(execMS)
	L["serve.reply_ms_p50"] = median(reply)
	L["serve.rejected_per_job"] = rejected / n

	// Program spans are not job-scoped: with two jobs in flight, each
	// executor interval also covers the other job's spans, so these are
	// means over concurrent jobs.
	spans := tr.hostSpans()
	var totals spanTotals
	var selfMS, unattributed, opMS float64
	for _, sp := range spans {
		totals.add(sp)
	}
	for _, iv := range execIvs {
		var children []interval
		for _, sp := range spansWithin(spans, iv.lo, iv.hi) {
			if isChildSpan(sp.Name) {
				children = append(children, interval{sp.Start.Real(), sp.End.Real()})
			}
		}
		selfMS += ms(iv.len() - covered(iv.lo, iv.hi, children))
	}
	for _, j := range jobs {
		lo, hi := tr.offset(j.send), tr.offset(j.recv)
		opMS += ms(hi - lo)
		if !j.ran {
			unattributed += ms(hi - lo)
			continue
		}
		// Admission wait, execution and reply tile the op.
		parts := []interval{{lo, tr.offset(j.run.start)}, {tr.offset(j.run.start), tr.offset(j.run.end)}, {tr.offset(j.run.end), hi}}
		unattributed += ms(hi - lo - covered(lo, hi, parts))
	}
	totals.perOp(L, n)
	L["offload.self_ms_per_op"] = selfMS / n
	L["ledger.unattributed_share"] = unattributed / opMS
	first, last := jobs[0], jobs[min(len(jobs), exportOps)-1]
	tr.window(first.send, last.recv)
	return nil
}
