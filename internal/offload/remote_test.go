package offload

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// startWorkers serves n remote workers resolving the offload test kernels.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		w, err := remoteexec.Serve("127.0.0.1:0", testRegistry)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func TestCloudPluginWithRemoteWorkers(t *testing.T) {
	addrs := startWorkers(t, 2)
	p, err := NewCloudPlugin(CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 2, CoresPerWorker: 2},
		Store:       storage.NewMemStore(),
		WorkerAddrs: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.Available() {
		t.Fatal("plugin with live workers should be available")
	}

	n := int64(500)
	in := data.Generate(1, int(n), data.Dense, 60)
	out := make([]byte, 4*n)
	rep, err := p.Run(scale2Region(n, in.Bytes(), out))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.V {
		if data.GetFloat(out, i) != 2*in.V[i] {
			t.Fatalf("remote-worker run wrong at %d", i)
		}
	}
	if rep.Tiles != 4 {
		t.Fatalf("tiles = %d", rep.Tiles)
	}
}

func init() {
	// addbcast: out[i] = a[i] + b[lo+i], with A partitioned and B a
	// broadcast vector read whole.
	testRegistry.Register("addbcast", func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		a, b := data.View(in[0]), data.View(in[1])
		for i := range a {
			data.PutFloat(out[0], i, a[i]+b[int(lo)+i])
		}
		return nil
	})
}

// countWriter counts the bytes written through it.
type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// countingRelays puts a TCP relay in front of each address and reports
// the relay addresses and a counter of the bytes sent toward the targets.
// Bytes are counted as they pass, so the count is complete once the
// replies to them are back.
func countingRelays(t *testing.T, addrs []string) ([]string, *atomic.Int64) {
	t.Helper()
	sent := new(atomic.Int64)
	out := make([]string, len(addrs))
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait) // runs last, after every relay below has closed
	for i, target := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ln.Addr().String()
		var mu sync.Mutex
		var conns []net.Conn
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				in, err := ln.Accept()
				if err != nil {
					return
				}
				up, err := net.Dial("tcp", target)
				if err != nil {
					in.Close()
					continue
				}
				mu.Lock()
				conns = append(conns, in, up)
				mu.Unlock()
				wg.Add(2)
				go func() {
					defer wg.Done()
					io.Copy(countWriter{w: up, n: sent}, in)
					up.Close()
				}()
				go func() {
					defer wg.Done()
					io.Copy(in, up)
					in.Close()
				}()
			}
		}()
		t.Cleanup(func() {
			ln.Close()
			mu.Lock()
			for _, c := range conns {
				c.Close()
			}
			mu.Unlock()
		})
	}
	return out, sent
}

// TestRemoteWorkersReceiveBroadcastOnce runs a region with a broadcast
// input twice on one plugin with two remote workers. Each worker
// connection receives the broadcast's bytes once, across tiles and
// across regions, and every output is exact.
func TestRemoteWorkersReceiveBroadcastOnce(t *testing.T) {
	addrs, sent := countingRelays(t, startWorkers(t, 2))
	p, err := NewCloudPlugin(CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 2, CoresPerWorker: 4},
		Store:       storage.NewMemStore(),
		WorkerAddrs: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := int64(1 << 16)
	a := data.Generate(1, int(n), data.Dense, 64)
	b := data.Generate(1, int(n), data.Dense, 65)
	for run := 0; run < 2; run++ {
		out := make([]byte, 4*n)
		rep, err := p.Run(&Region{
			Kernel: "addbcast", Registry: testRegistry, N: n,
			Ins:  []Buffer{{Name: "A", Data: a.Bytes(), BytesPerIter: 4}, {Name: "B", Data: b.Bytes()}},
			Outs: []Buffer{{Name: "C", Data: out, BytesPerIter: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Tiles < 4 {
			t.Fatalf("tiles = %d, want several per worker", rep.Tiles)
		}
		for i := range a.V {
			if got, want := data.GetFloat(out, i), a.V[i]+b.V[i]; got != want {
				t.Fatalf("run %d: out[%d] = %v, want %v", run, i, got, want)
			}
		}
	}
	// Two runs each scatter A once; B crosses each of the two worker
	// connections once. Shipping B with every tile would send at least
	// 2 x tiles x |B| instead.
	bBytes, aBytes := 4*n, 4*n
	if got, limit := sent.Load(), 2*aBytes+2*bBytes+bBytes/2; got > limit {
		t.Fatalf("workers received %d bytes, want at most %d (|A| = |B| = %d, two runs, two workers)", got, limit, bBytes)
	}
}

func TestCloudPluginRemoteWorkersReductions(t *testing.T) {
	addrs := startWorkers(t, 2)
	p, err := NewCloudPlugin(CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 2, CoresPerWorker: 1},
		Store:       storage.NewMemStore(),
		WorkerAddrs: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	n := int64(200)
	in := data.Generate(1, int(n), data.Dense, 61)

	// Sum reduction through the remote boundary.
	sum := make([]byte, 4)
	rSum := &Region{
		Kernel:   "sumsq",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "s", Data: sum, Reduce: ReduceSumF32}},
	}
	if _, err := p.Run(rSum); err != nil {
		t.Fatal(err)
	}
	var want float32
	for _, v := range in.V {
		want += v * v
	}
	if got := data.GetFloat(sum, 0); !data.AlmostEqual([]float32{got}, []float32{want}, 1e-2) {
		t.Fatalf("remote sumsq = %v, want %v", got, want)
	}

	// Max reduction: exercises the InitNegInfF identity on the worker.
	maxOut := make([]byte, 4)
	rMax := &Region{
		Kernel:   "maxval",
		Registry: testRegistry,
		N:        n,
		Ins:      []Buffer{{Name: "A", Data: in.Bytes(), BytesPerIter: 4}},
		Outs:     []Buffer{{Name: "m", Data: maxOut, Reduce: ReduceMaxF32}},
	}
	if _, err := p.Run(rMax); err != nil {
		t.Fatal(err)
	}
	wantMax := in.V[0]
	for _, v := range in.V {
		if v > wantMax {
			wantMax = v
		}
	}
	if got := data.GetFloat(maxOut, 0); got != wantMax {
		t.Fatalf("remote maxval = %v, want %v", got, wantMax)
	}
}

func TestCloudPluginUnreachableWorkersFallBack(t *testing.T) {
	p, err := NewCloudPlugin(CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 1, CoresPerWorker: 1},
		Store:       storage.NewMemStore(),
		WorkerAddrs: []string{"127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err) // construction must not fail
	}
	if p.Available() {
		t.Fatal("unreachable workers must leave the device unavailable")
	}
	host, _ := NewHostPlugin(2)
	m, _ := NewManager(host)
	id := m.Register(p)
	n := int64(16)
	in := data.Generate(1, int(n), data.Dense, 62)
	out := make([]byte, 4*n)
	rep, err := m.Run(id, scale2Region(n, in.Bytes(), out))
	if err != nil || !rep.FellBack {
		t.Fatalf("expected host fallback: rep=%v err=%v", rep, err)
	}
}

func TestCloudPluginWorkerDiesMidSession(t *testing.T) {
	w, err := remoteexec.Serve("127.0.0.1:0", testRegistry)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewCloudPlugin(CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 1, CoresPerWorker: 2},
		Store:       storage.NewMemStore(),
		WorkerAddrs: []string{w.Addr()},
		// The test kills the worker mid-session and expects the next
		// Available() to notice; disable the health-verdict TTL cache.
		HealthTTL: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := int64(64)
	in := data.Generate(1, int(n), data.Dense, 63)
	out := make([]byte, 4*n)
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if p.Available() {
		t.Fatal("device should turn unavailable when its worker dies")
	}
	if _, err := p.Run(scale2Region(n, in.Bytes(), out)); err == nil {
		t.Fatal("run against dead workers should error")
	}
}
