package remoteexec

import (
	"encoding/gob"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
)

// bcastRegistry holds "addb": out[i] = in[0][i] + in[1][lo+i], where in[0]
// is the tile's window and in[1] a broadcast vector read whole.
func bcastRegistry() *fatbin.Registry {
	reg := fatbin.NewRegistry()
	reg.Register("addb", func(lo, hi int64, _ []int64, in, out [][]byte) error {
		w, b := data.View(in[0]), data.View(in[1])
		for i := range w {
			data.PutFloat(out[0], i, w[i]+b[int(lo)+i])
		}
		return nil
	})
	return reg
}

// relay forwards TCP connections to target and counts the bytes sent
// toward it as they pass, so the count is complete once a reply is back.
// cut closes every connection relayed so far, as a network failure would,
// and leaves the relay accepting new ones.
type relay struct {
	ln   net.Listener
	sent atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func newRelay(t *testing.T, target string) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				in.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, in, out)
			r.mu.Unlock()
			r.wg.Add(2)
			go func() {
				defer r.wg.Done()
				io.Copy(countingConn{Conn: out, n: &r.sent}, in)
				out.Close()
			}()
			go func() {
				defer r.wg.Done()
				io.Copy(in, out)
				in.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		r.cut()
		r.wg.Wait()
	})
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// countingConn counts the bytes written through it; the cache tests read
// the client's upstream traffic from it between requests.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// cacheRig is a worker with a given cache cap and a client dialed to it
// whose upstream bytes are counted.
type cacheRig struct {
	w    *Worker
	c    *Client
	sent *atomic.Int64
}

func newCacheRig(t *testing.T, cacheMax int64) *cacheRig {
	t.Helper()
	w, err := serve("127.0.0.1:0", bcastRegistry(), cacheMax)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	c, err := dial(w.Addr(), cacheMax)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sent := new(atomic.Int64)
	c.connMu.Lock()
	c.conn = countingConn{Conn: c.conn, n: sent}
	c.enc = gob.NewEncoder(c.conn)
	c.connMu.Unlock()
	return &cacheRig{w: w, c: c, sent: sent}
}

// vec returns n float32s starting at base, serialized.
func vec(n int, base float32) []byte {
	f := make([]float32, n)
	for i := range f {
		f[i] = base + float32(i)
	}
	return data.Bytes(f)
}

// addbTile builds the addb request for tile [lo, hi) over broadcast b.
func addbTile(lo, hi int64, b []byte) *TileRequest {
	return &TileRequest{
		Kernel: "addb", Lo: lo, Hi: hi,
		Ins:      [][]byte{vec(int(hi-lo), 1000), b},
		Keys:     []Key{{}, KeyOf(b)},
		OutSizes: []int64{(hi - lo) * 4},
	}
}

// checkAddb verifies a tile's output against its inputs bit for bit.
func checkAddb(t *testing.T, req *TileRequest, outs [][]byte) {
	t.Helper()
	w, b := data.Floats(req.Ins[0]), data.Floats(req.Ins[1])
	for i, got := range data.Floats(outs[0]) {
		if want := w[i] + b[int(req.Lo)+i]; got != want {
			t.Fatalf("tile [%d,%d) out[%d] = %v, want %v", req.Lo, req.Hi, i, got, want)
		}
	}
}

// TestBroadcastShippedOncePerConnection: eight tiles over one 256 KiB
// broadcast ship its bytes once per connection; a second connection to
// the same worker ships them once more, since caches are per connection.
func TestBroadcastShippedOncePerConnection(t *testing.T) {
	w, err := Serve("127.0.0.1:0", bcastRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rl := newRelay(t, w.Addr())
	const n, tiles = 1 << 16, 8
	b := vec(n, 0)
	run := func() {
		c, err := Dial(rl.addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		for i := int64(0); i < tiles; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := addbTile(i*n/tiles, (i+1)*n/tiles, b)
				outs, err := c.RunTile(req)
				if err != nil {
					t.Error(err)
					return
				}
				checkAddb(t, req, outs)
			}()
		}
		wg.Wait()
		if c.resends != 0 {
			t.Errorf("%d unknown-key resends on a healthy connection", c.resends)
		}
	}
	windows := int64(n * 4) // the partitioned windows add up to |B|
	run()
	first := rl.sent.Load()
	if first < int64(len(b))+windows || first >= 2*int64(len(b))+windows {
		t.Fatalf("one connection sent %d bytes for |B| = %d and %d window bytes: broadcast not shipped exactly once",
			first, len(b), windows)
	}
	run()
	if both := rl.sent.Load(); both < 2*first*9/10 {
		t.Fatalf("second connection sent %d bytes, want about %d again", both-first, first)
	}
	if got := w.Served(); got != 2*tiles {
		t.Fatalf("Served = %d, want %d", got, 2*tiles)
	}
}

// TestBroadcastCacheEvictsLRU runs the cache at a cap of two broadcasts:
// a third evicts the least recently used, which then travels again with
// no unknown-key round trip, while the recently used one still travels
// as a key alone.
func TestBroadcastCacheEvictsLRU(t *testing.T) {
	const n = 1024
	size := int64(n * 4)
	rig := newCacheRig(t, 2*size+size/2)
	b1, b2, b3 := vec(n, 0), vec(n, 1e4), vec(n, 2e4)
	ship := func(b []byte) int64 {
		t.Helper()
		before := rig.sent.Load()
		req := addbTile(0, 16, b)
		outs, err := rig.c.RunTile(req)
		if err != nil {
			t.Fatal(err)
		}
		checkAddb(t, req, outs)
		return rig.sent.Load() - before
	}
	for _, b := range [][]byte{b1, b2} {
		if got := ship(b); got < size {
			t.Fatalf("first use sent %d bytes, want at least %d", got, size)
		}
	}
	if got := ship(b1); got >= size { // b1 becomes most recently used
		t.Fatalf("cached broadcast sent %d bytes, want only its key", got)
	}
	if got := ship(b3); got < size { // evicts b2, the least recently used
		t.Fatalf("first use sent %d bytes, want at least %d", got, size)
	}
	if got := ship(b1); got >= size {
		t.Fatalf("recently used broadcast was evicted: sent %d bytes", got)
	}
	if got := ship(b2); got < size {
		t.Fatalf("evicted broadcast sent %d bytes, want its bytes again", got)
	}
	if rig.c.resends != 0 {
		t.Fatalf("eviction caused %d unknown-key resends; the mirror diverged", rig.c.resends)
	}
	if used := rig.c.mirror.used; used > rig.c.mirror.max {
		t.Fatalf("mirror holds %d bytes over its %d cap", used, rig.c.mirror.max)
	}
	// A broadcast larger than the cap is never cached: it travels every time.
	big := vec(3*n, 5e4)
	for i := 0; i < 2; i++ {
		if got := ship(big); got < 3*size {
			t.Fatalf("oversized broadcast use %d sent %d bytes, want its bytes every time", i, got)
		}
	}
}

// TestReconnectResetsBroadcastCache cuts the connection under a client
// whose worker holds a broadcast. The request in flight fails, the next
// one redials, and it ships the bytes again up front: the fresh worker
// connection starts empty, and so does the client's mirror.
func TestReconnectResetsBroadcastCache(t *testing.T) {
	w, err := Serve("127.0.0.1:0", bcastRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rl := newRelay(t, w.Addr())
	c, err := Dial(rl.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := vec(4096, 0)
	req := addbTile(0, 64, b)
	if _, err := c.RunTile(req); err != nil {
		t.Fatal(err)
	}
	if _, held := c.mirror.get(KeyOf(b)); !held {
		t.Fatal("mirror should hold the broadcast after its first use")
	}
	rl.cut()
	if _, err := c.RunTile(req); err == nil {
		t.Fatal("request over a cut connection should fail")
	}
	if c.mirror.used != 0 {
		t.Fatalf("a dropped connection left %d bytes in the mirror", c.mirror.used)
	}
	outs, err := c.RunTile(req)
	if err != nil {
		t.Fatalf("request after reconnect: %v", err)
	}
	checkAddb(t, req, outs)
	if c.resends != 0 {
		t.Fatalf("reconnect needed %d unknown-key resends; the mirror outlived its connection", c.resends)
	}
}

// TestUnknownKeyResendsNeverWrongBytes covers the recovery protocol: a
// key the worker lacks gets an explicit UnknownKey reply, the client
// resends once with the bytes, and bytes that do not hash to their key
// are refused rather than cached or computed on.
func TestUnknownKeyResendsNeverWrongBytes(t *testing.T) {
	rig := newCacheRig(t, cacheBytes)
	b := vec(2048, 0)

	// The wire level: a key never sent on this connection.
	conn, err := net.Dial("tcp", rig.w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := addbTile(0, 8, b)
	raw.Ins[1] = nil
	if err := gob.NewEncoder(conn).Encode(raw); err != nil {
		t.Fatal(err)
	}
	var resp TileResponse
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.UnknownKey || resp.Outs != nil || !strings.Contains(resp.Err, "unknown broadcast key") {
		t.Fatalf("unknown key reply = %+v, want an explicit UnknownKey error", resp)
	}

	// A mirror that wrongly believes the worker holds b: the first reply
	// is UnknownKey, the resend carries the bytes, the result is right.
	rig.c.mu.Lock()
	rig.c.mirror.put(KeyOf(b), int64(len(b)), nil)
	rig.c.mu.Unlock()
	req := addbTile(0, 8, b)
	outs, err := rig.c.RunTile(req)
	if err != nil {
		t.Fatal(err)
	}
	checkAddb(t, req, outs)
	if rig.c.resends != 1 {
		t.Fatalf("resends = %d, want 1", rig.c.resends)
	}

	// Bytes that do not match their key: refused on the send and on the
	// resend, never cached, never computed on.
	other := vec(2048, 7)
	forged := addbTile(0, 8, other)
	forged.Keys[1] = KeyOf(vec(2048, 9))
	if _, err := rig.c.RunTile(forged); err == nil || !strings.Contains(err.Error(), "does not hash") {
		t.Fatalf("forged broadcast: err = %v, want a hash refusal", err)
	}
	if rig.c.mirror.used != 0 {
		t.Fatalf("refused bytes left %d bytes in the mirror", rig.c.mirror.used)
	}
	// The connection recovers: the next request ships b and succeeds.
	outs, err = rig.c.RunTile(req)
	if err != nil {
		t.Fatal(err)
	}
	checkAddb(t, req, outs)
	if got := rig.w.Served(); got != 2 {
		t.Fatalf("Served = %d, want 2: a refused tile must not run", got)
	}
}
