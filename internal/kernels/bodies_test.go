package kernels

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
)

// tileCall is one loop-body invocation over iterations [lo, hi): input
// and output sizes in float32s, plus the scalars.
type tileCall struct {
	lo, hi  int64
	scalars []int64
	ins     []int
	outs    []int
}

// bodyCalls gives every registered loop body a valid tile at dimension n,
// laid out exactly as the workloads map their buffers (partitioned inputs
// as the tile's window, broadcast inputs whole).
func bodyCalls(n int) map[string]tileCall {
	const lo, hi = 3, 11
	rows := hi - lo
	nn, win := n*n, rows*n
	s := []int64{int64(n)}
	s2 := []int64{int64(n), int64(n)}
	return map[string]tileCall{
		"mm":         {lo, hi, s, []int{win, nn}, []int{win}},
		"mm.bcast":   {lo, hi, s, []int{nn, nn}, []int{win}},
		"gemm":       {lo, hi, s, []int{win, nn, win}, []int{win}},
		"syrk":       {lo, hi, s, []int{nn, win}, []int{win}},
		"syr2k":      {lo, hi, s, []int{nn, nn, win}, []int{win}},
		"covar.mean": {lo, hi, s2, []int{nn}, []int{rows}},
		"covar.sym":  {lo, hi, s2, []int{nn, n}, []int{win}},
		"collinear":  {lo, hi, s, []int{2 * n}, []int{1}},
	}
}

func randomBuf(rng *rand.Rand, floats int) []byte {
	f := make([]float32, floats)
	for i := range f {
		f[i] = rng.Float32()*2 - 1
	}
	return data.Bytes(f)
}

// TestBodiesNeverWriteInputs guards the LoopBody contract that inputs are
// read-only. Bodies read their inputs through data.View, which aliases the
// runtime's buffers, and a remote worker's cached broadcast is shared by
// every later tile on its connection, so one stray write would corrupt
// other tiles and jobs.
func TestBodiesNeverWriteInputs(t *testing.T) {
	const n = 24
	calls := bodyCalls(n)
	rng := rand.New(rand.NewSource(7))
	for _, name := range fatbin.Default.Names() {
		call, ok := calls[name]
		if !ok {
			t.Errorf("%s: registered body has no test invocation; add it to bodyCalls", name)
			continue
		}
		ins := make([][]byte, len(call.ins))
		before := make([][]byte, len(call.ins))
		for k, sz := range call.ins {
			ins[k] = randomBuf(rng, sz)
			before[k] = bytes.Clone(ins[k])
		}
		outs := make([][]byte, len(call.outs))
		for l, sz := range call.outs {
			outs[l] = make([]byte, sz*data.FloatSize)
		}
		if err := fatbin.Default.Invoke(name, call.lo, call.hi, call.scalars, ins, outs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k := range ins {
			if !bytes.Equal(ins[k], before[k]) {
				t.Errorf("%s wrote to its input %d", name, k)
			}
		}
	}
}

// TestGemmTileAllocatesLessThanBroadcast gates the tile input path: one
// gemm tile at the region-bcast shape (n=768, 12 rows) must read the
// broadcast B in place rather than decode a copy of it. On a big-endian
// host View decodes, so the gate does not apply there.
func TestGemmTileAllocatesLessThanBroadcast(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("big-endian host: data.View decodes a copy by design")
	}
	const n, rows = 768, 12
	rng := rand.New(rand.NewSource(3))
	ins := [][]byte{randomBuf(rng, rows*n), randomBuf(rng, n*n), randomBuf(rng, rows*n)}
	outs := [][]byte{make([]byte, rows*n*data.FloatSize)}
	bBytes := uint64(len(ins[1]))
	run := func() {
		if err := fatbin.Default.Invoke("gemm", 0, rows, []int64{n}, ins, outs); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up
	// The smallest of a few runs, so that a stray allocation by another
	// goroutine cannot fail the gate.
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		run()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	if least >= bBytes {
		t.Fatalf("one gemm tile allocated %d bytes, not less than |B| = %d", least, bBytes)
	}
}

// TestCovarBodiesMatchSerialBitwise checks both covar loop bodies, tiled,
// against the serial reference bit for bit: the bodies sum every element
// over i in ascending order with the same expression as the reference.
func TestCovarBodiesMatchSerialBitwise(t *testing.T) {
	const n, tiles = 37, 4
	d := data.Generate(n, n, data.Dense, 11)
	wantMean, wantSym := serialCovar(n, n, d.V)
	s := []int64{n, n}
	mean := make([]byte, n*data.FloatSize)
	sym := make([]byte, n*n*data.FloatSize)
	for tile := int64(0); tile < tiles; tile++ {
		lo, hi := tile*n/tiles, (tile+1)*n/tiles
		if err := fatbin.Default.Invoke("covar.mean", lo, hi, s, [][]byte{d.Bytes()},
			[][]byte{mean[lo*data.FloatSize : hi*data.FloatSize]}); err != nil {
			t.Fatal(err)
		}
	}
	for tile := int64(0); tile < tiles; tile++ {
		lo, hi := tile*n/tiles, (tile+1)*n/tiles
		if err := fatbin.Default.Invoke("covar.sym", lo, hi, s, [][]byte{d.Bytes(), mean},
			[][]byte{sym[lo*n*data.FloatSize : hi*n*data.FloatSize]}); err != nil {
			t.Fatal(err)
		}
	}
	for what, pair := range map[string][2][]float32{
		"mean": {data.Floats(mean), wantMean},
		"sym":  {data.Floats(sym), wantSym},
	} {
		for i := range pair[1] {
			if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
				t.Fatalf("covar %s[%d] = %v, serial reference %v", what, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// BenchmarkCovarSym times one covar.sym tile of 16 rows at n=512.
func BenchmarkCovarSym(b *testing.B) {
	const n, rows = 512, 16
	d := data.Generate(n, n, data.Dense, 5)
	mean, _ := serialCovar(n, n, d.V)
	ins := [][]byte{d.Bytes(), data.Bytes(mean)}
	outs := [][]byte{make([]byte, rows*n*data.FloatSize)}
	s := []int64{n, n}
	for b.Loop() {
		if err := fatbin.Default.Invoke("covar.sym", 0, rows, s, ins, outs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAllBenchmarksOnRemoteWorkers runs every benchmark through two remote
// worker processes' loop bodies and requires outputs bit-identical to the
// host device's. One plugin serves every benchmark, so the workers'
// broadcast caches carry entries across regions and jobs.
func TestAllBenchmarksOnRemoteWorkers(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		w, err := remoteexec.Serve("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs = append(addrs, w.Addr())
	}
	plugin, err := offload.NewCloudPlugin(offload.CloudConfig{
		Spec:        spark.ClusterSpec{Workers: 2, CoresPerWorker: 4},
		Store:       storage.NewMemStore(),
		WorkerAddrs: addrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plugin.Close()
	rt, err := omp.NewRuntime(4)
	if err != nil {
		t.Fatal(err)
	}
	remote := rt.RegisterDevice(plugin)
	for _, b := range All {
		w := b.Prepare(40, data.Sparse, 9)
		if _, err := w.Run(rt, rt.HostDevice()); err != nil {
			t.Fatal(err)
		}
		var want [][]float32
		for _, o := range w.Outputs() {
			want = append(want, slices.Clone(o))
			clear(o) // the remote run must produce every element itself
		}
		rep, err := w.Run(rt, remote)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if rep.FellBack {
			t.Fatalf("%s fell back to the host", b.Name)
		}
		for i, o := range w.Outputs() {
			for j := range o {
				if math.Float32bits(o[j]) != math.Float32bits(want[i][j]) {
					t.Fatalf("%s output %d[%d]: remote %v, host %v", b.Name, i, j, o[j], want[i][j])
				}
			}
		}
	}
}
