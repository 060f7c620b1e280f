package main

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/kernels"
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/serve"
	"ompcloud/internal/storage"
)

// tinyGemm is the probes' test case: gemm at n=64.
var tinyGemm = serve.JobSpec{Bench: "gemm", N: 64, Kind: "dense", Seed: 7}

// countingStore tallies the calls and bytes that reach it, independently
// of the probe above it.
type countingStore struct {
	storage.Store
	mu         sync.Mutex
	ops, bytes int64
}

func (c *countingStore) add(n int) {
	c.mu.Lock()
	c.ops++
	c.bytes += int64(n)
	c.mu.Unlock()
}

func (c *countingStore) Put(k string, b []byte) error { c.add(len(b)); return c.Store.Put(k, b) }
func (c *countingStore) Get(k string) ([]byte, error) {
	b, err := c.Store.Get(k)
	c.add(len(b))
	return b, err
}
func (c *countingStore) Delete(k string) error { c.add(0); return c.Store.Delete(k) }
func (c *countingStore) List(p string) ([]string, error) {
	c.add(0)
	return c.Store.List(p)
}
func (c *countingStore) Stat(k string) (int64, error) { c.add(0); return c.Store.Stat(k) }

func runRegion(t *testing.T, probed bool) *regionInst {
	t.Helper()
	inst, err := regionSpec{bench: kernels.GEMM, n: 64, kind: data.Dense, cores: 64}.setup(tinyGemm.Seed, probed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	return inst.(*regionInst)
}

func TestStoreProbeTransparent(t *testing.T) {
	plain := runRegion(t, false)
	probed := runRegion(t, true)
	if !sameBits(probed.golden, plain.golden) {
		t.Fatal("outputs through the store probe differ from the plain store's")
	}

	// Counts match what reached the store below the probe.
	inner := &countingStore{Store: storage.NewMemStore()}
	p := newStoreProbe(inner)
	exec := &serve.PoolExecutor{Base: p, ChunkBytes: 4096}
	res := exec.Run(&serve.Job{ID: "1-t", Tenant: "t", Spec: tinyGemm}, 4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	c := p.counts()
	if c.ops == 0 || c.ops != inner.ops || c.bytes != inner.bytes {
		t.Fatalf("probe counted %d ops / %d bytes, store saw %d / %d", c.ops, c.bytes, inner.ops, inner.bytes)
	}
	if c.busyNS <= 0 {
		t.Fatal("probe measured no busy time")
	}
}

func TestExecProbeTransparent(t *testing.T) {
	want, err := expectedOutputs(tinyGemm)
	if err != nil {
		t.Fatal(err)
	}
	p := newExecProbe(&serve.PoolExecutor{Base: storage.NewMemStore(), ChunkBytes: 4096})
	res := p.Run(&serve.Job{ID: "1-t", Tenant: "t", Client: "c-1", Spec: tinyGemm}, 4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sameBits(res.Outputs, want) {
		t.Fatal("outputs through the executor probe differ from the host device's")
	}
	r, ok := p.take("c-1")
	if !ok || r.report != res.Report || r.end.Before(r.start) {
		t.Fatalf("probe record %+v does not match the run", r)
	}
	if _, again := p.take("c-1"); again {
		t.Fatal("take left the record behind")
	}
}

// poolJob runs tinyGemm on a PoolExecutor whose tiles go to addr.
func poolJob(t *testing.T, addr string) serve.Result {
	t.Helper()
	exec := &serve.PoolExecutor{
		Base: storage.NewMemStore(), ChunkBytes: 4096,
		Workers: func() []string { return []string{addr} },
	}
	return exec.Run(&serve.Job{ID: "1-t", Tenant: "t", Spec: tinyGemm}, 4)
}

func TestTimingRegistryTransparent(t *testing.T) {
	want, err := expectedOutputs(tinyGemm)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTimingRegistry(fatbin.Default)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.reg.Names(), fatbin.Default.Names(); len(got) != len(want) {
		t.Fatalf("timing registry holds %v, want %v", got, want)
	}
	w, err := remoteexec.Serve("127.0.0.1:0", tr.reg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res := poolJob(t, w.Addr())
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sameBits(res.Outputs, want) {
		t.Fatal("outputs through the timing registry differ from the host device's")
	}
	if tr.reg.Calls() == 0 || tr.reg.Calls() != w.Served() || tr.reg.Calls() != int64(res.Report.Tiles) {
		t.Fatalf("timing registry counted %d calls; worker served %d tiles of %d", tr.reg.Calls(), w.Served(), res.Report.Tiles)
	}
	if tr.busyNS.Load() <= 0 {
		t.Fatal("timing registry measured no busy time")
	}
}

func TestRelayCountsBytes(t *testing.T) {
	// Exact counts against an echo server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var echoDone sync.WaitGroup
	echoDone.Add(1)
	go func() {
		defer echoDone.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	r, err := newRelay(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.addr())
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 100_003)
	rand.New(rand.NewSource(1)).Read(msg)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(msg))
	if _, err := io.ReadFull(c, back); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if !bytes.Equal(back, msg) {
		t.Fatal("relay changed the bytes")
	}
	if err := r.close(); err != nil {
		t.Fatal(err)
	}
	echoDone.Wait()
	if r.up.Load() != int64(len(msg)) || r.down.Load() != int64(len(msg)) {
		t.Fatalf("relay counted %d up / %d down, want %d each", r.up.Load(), r.down.Load(), len(msg))
	}

	// A job whose tiles cross the relay is unchanged.
	want, err := expectedOutputs(tinyGemm)
	if err != nil {
		t.Fatal(err)
	}
	w, err := remoteexec.Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r2, err := newRelay(w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	res := poolJob(t, r2.addr())
	if err := r2.close(); err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sameBits(res.Outputs, want) {
		t.Fatal("outputs through the relay differ from the host device's")
	}
	// Every tile ships its inputs up and its output window down.
	in, out := kernels.GEMM.HostBytes(tinyGemm.N)
	if r2.up.Load() < in || r2.down.Load() < out {
		t.Fatalf("relay counted %d up / %d down, below the %d / %d bytes the tiles carry", r2.up.Load(), r2.down.Load(), in, out)
	}
}

// TestGateCatchesFlippedBit flips one output bit in a worker's kernel call
// and checks that the service workload's output gate fails that job. The
// job is a dense gemm, whose tiles write their outputs straight into the
// result, so the flipped bit cannot be absorbed by a reduction.
func TestGateCatchesFlippedBit(t *testing.T) {
	inst, err := setupService(3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serviceInst)
	ph, err := s.run(300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed() != 0 {
		t.Fatalf("%d of %d clean jobs failed the gate", ph.failed(), len(ph.ops))
	}
	gemm := distinctSpecs(3)[0]
	if gemm.Bench != "gemm" || gemm.Kind != "dense" {
		t.Fatalf("first distinct spec is %+v, want dense gemm", gemm)
	}
	if j := s.submit(0, "clean", gemm); !j.ok {
		t.Fatalf("clean gemm job failed: %s", j.err)
	}
	tr := s.timing[0]
	tr.flipAt.Store(tr.seq.Load() + 1)
	j := s.submit(0, "flipped", gemm)
	if tr.seq.Load() < tr.flipAt.Load() {
		t.Fatal("the worker ran no kernel call for the job")
	}
	if j.ok {
		t.Fatal("the gate passed a job with a flipped output bit")
	}
}

// TestRegionGateCatchesMismatch checks the in-process gate: every timed op
// is compared bit for bit against the verified warm-up outputs.
func TestRegionGateCatchesMismatch(t *testing.T) {
	inst := runRegion(t, false)
	ph, err := inst.run(100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.ops) == 0 || ph.failed() != 0 {
		t.Fatalf("%d of %d clean ops failed the gate", ph.failed(), len(ph.ops))
	}
	inst.golden[0][5] = -inst.golden[0][5]
	ph, err = inst.run(100*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed() != len(ph.ops) {
		t.Fatalf("the gate passed %d of %d ops against a changed reference", len(ph.ops)-ph.failed(), len(ph.ops))
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 20}, {30, 40}, {-5, 2}, {45, 100}}
	if got := covered(0, 50, ivs); got != 20+10+5 {
		t.Fatalf("covered = %v, want 35", got)
	}
	if got := covered(0, 50, nil); got != 0 {
		t.Fatalf("covered of nothing = %v", got)
	}
}

func TestJobListsBalanced(t *testing.T) {
	lists := jobLists(5)
	if !sameLists(jobLists(5), lists) {
		t.Fatal("job lists differ for one seed")
	}
	specs := map[serve.JobSpec]bool{}
	for _, s := range distinctSpecs(5) {
		specs[s] = true
	}
	// Interleaved in turn, every window of one pair cycle holds each
	// ordered pair of kinds exactly once.
	var order []string
	for i := range lists[0] {
		for c := range lists {
			if !specs[lists[c][i]] {
				t.Fatalf("spec %+v is not among the distinct specs", lists[c][i])
			}
			order = append(order, lists[c][i].Bench)
		}
	}
	for start := 0; start+len(pairCycle) < len(order); start += 5 {
		pairs := map[[2]string]int{}
		for i := start; i < start+len(pairCycle); i++ {
			pairs[[2]string{order[i], order[i+1]}]++
		}
		if len(pairs) != len(serviceKinds)*len(serviceKinds) {
			t.Fatalf("window at %d holds %d distinct ordered pairs, want %d", start, len(pairs), len(serviceKinds)*len(serviceKinds))
		}
	}
}

func sameLists(a, b [2][]serve.JobSpec) bool {
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				return false
			}
		}
	}
	return true
}
