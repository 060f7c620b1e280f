// Package remoteexec executes loop tiles in remote worker processes over
// TCP. In the paper, Spark workers are separate machines that run the
// natively compiled loop body out of the shared fat binary (via JNI); this
// package gives the reproduction the same process boundary: a worker server
// resolves kernels from its own fat-binary registry — host and workers run
// the same Go binary — and the cloud plugin ships each tile's windows to a
// worker and receives its outputs back.
//
// The protocol is gob over TCP, one request per tile:
//
//	TileRequest{Kernel, Lo, Hi, Scalars, Ins, Keys, OutSizes, OutInit}
//	TileResponse{Outs, Err, UnknownKey}
//
// Broadcast inputs are keyed by content (Keys[k] = KeyOf(Ins[k])), so that
// each connection carries them once, as the paper's broadcast (Eq. 7)
// ships each unpartitioned input once per worker. The worker keeps a
// byte-capped LRU of the keyed inputs it has received on the connection;
// the client keeps a mirror of that LRU and sends a cached input's key
// with an empty Ins[k] in place of its bytes. Requests serialize on the
// connection and both sides update their caches in input order, so the
// mirror stays exact. A worker that cannot resolve a key, or receives
// bytes that do not hash to their key, empties its cache and replies
// UnknownKey; the client empties its mirror and resends once with every
// keyed input's bytes. A dropped connection empties both sides: the
// worker's cache dies with the connection, and the client, which redials
// on its next request, starts a fresh mirror. Partitioned inputs carry the
// zero key and travel inline on every request.
package remoteexec

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"

	"ompcloud/internal/fatbin"
)

// Output-initialization codes: how the worker fills an output buffer
// before invoking the kernel (the reduction identity).
const (
	InitZero    byte = 0 // zero bytes: partitioned outputs, bit-OR, sum
	InitNegInfF byte = 1 // float32 -inf lanes: max reductions
	InitPosInfF byte = 2 // float32 +inf lanes: min reductions
)

// TileRequest asks a worker to execute iterations [Lo, Hi) of a kernel.
type TileRequest struct {
	Kernel  string
	Lo, Hi  int64
	Scalars []int64
	Ins     [][]byte
	// Keys, when non-nil, has one entry per input. A nonzero Keys[k]
	// names input k by content (KeyOf(Ins[k])): the client ships its
	// bytes only when the worker's cache on this connection lacks them.
	// A zero key ships Ins[k] inline every time.
	Keys     []Key
	OutSizes []int64 // the worker allocates outputs of these sizes
	// OutInit selects each output's initialization (identity); nil means
	// all InitZero.
	OutInit []byte
}

// TileResponse carries the tile's outputs, or the execution error.
type TileResponse struct {
	Outs [][]byte
	Err  string
	// UnknownKey reports that the worker could not resolve a keyed input
	// and has emptied its cache for the connection; the client empties
	// its mirror and resends with the bytes.
	UnknownKey bool
}

// maxTileBytes bounds a single request/response to keep a confused peer
// from forcing unbounded allocations.
const maxTileBytes = 4 << 30

// Worker serves tile executions from a fat-binary registry.
type Worker struct {
	ln       net.Listener
	reg      *fatbin.Registry
	cacheMax int64 // byte cap of each connection's broadcast cache

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
	served int64
}

// Serve starts a worker on addr resolving kernels from reg (nil means
// fatbin.Default, the linked-in kernels).
func Serve(addr string, reg *fatbin.Registry) (*Worker, error) {
	return serve(addr, reg, cacheBytes)
}

func serve(addr string, reg *fatbin.Registry, cacheMax int64) (*Worker, error) {
	if reg == nil {
		reg = fatbin.Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remoteexec: %w", err)
	}
	w := &Worker{ln: ln, reg: reg, cacheMax: cacheMax, conns: make(map[net.Conn]struct{})}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr reports the listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Served reports how many tiles this worker executed.
func (w *Worker) Served() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.served
}

// Close stops the worker.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	for c := range w.conns {
		c.Close()
	}
	w.mu.Unlock()
	err := w.ln.Close()
	w.wg.Wait()
	return err
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			return
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return
		}
		w.conns[conn] = struct{}{}
		w.mu.Unlock()
		w.wg.Add(1)
		go w.handle(conn)
	}
}

func (w *Worker) handle(conn net.Conn) {
	defer w.wg.Done()
	defer func() {
		conn.Close()
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	cache := newBcastCache(w.cacheMax)
	for {
		var req TileRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		var resp *TileResponse
		if err := resolve(&req, cache); err != nil {
			// Both sides start over from empty: the client empties its
			// mirror and resends the bytes.
			cache.reset()
			resp = &TileResponse{Err: err.Error(), UnknownKey: true}
		} else {
			resp = w.execute(&req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// resolve fills req's keyed inputs that arrived as keys alone from the
// connection's cache, and caches those that arrived with their bytes, in
// input order, as the client's mirror expects. Bytes that do not hash to
// their key are refused, so a key never resolves to the wrong bytes.
func resolve(req *TileRequest, cache *bcastCache) error {
	if req.Keys == nil {
		return nil
	}
	if len(req.Keys) != len(req.Ins) {
		return fmt.Errorf("%d input keys for %d inputs", len(req.Keys), len(req.Ins))
	}
	for k, key := range req.Keys {
		if key == (Key{}) {
			continue
		}
		if len(req.Ins[k]) == 0 {
			e, ok := cache.get(key)
			if !ok {
				return fmt.Errorf("input %d names unknown broadcast key %x", k, key[:8])
			}
			req.Ins[k] = e.buf
			continue
		}
		if KeyOf(req.Ins[k]) != key {
			return fmt.Errorf("input %d does not hash to its broadcast key %x", k, key[:8])
		}
		cache.put(key, int64(len(req.Ins[k])), req.Ins[k])
	}
	return nil
}

// execute runs one tile, recovering kernel panics into errors so one bad
// tile does not take the worker down.
func (w *Worker) execute(req *TileRequest) (resp *TileResponse) {
	resp = &TileResponse{}
	defer func() {
		if rec := recover(); rec != nil {
			resp.Outs = nil
			resp.Err = fmt.Sprintf("kernel panic: %v", rec)
		}
	}()
	var total int64
	for _, in := range req.Ins {
		total += int64(len(in))
	}
	for _, sz := range req.OutSizes {
		if sz < 0 {
			resp.Err = "negative output size"
			return resp
		}
		total += sz
	}
	if total > maxTileBytes {
		resp.Err = "tile exceeds size limit"
		return resp
	}
	outs := make([][]byte, len(req.OutSizes))
	for i, sz := range req.OutSizes {
		outs[i] = make([]byte, sz)
		if i < len(req.OutInit) {
			switch req.OutInit[i] {
			case InitNegInfF:
				fillF32(outs[i], -1e38)
			case InitPosInfF:
				fillF32(outs[i], 1e38)
			}
		}
	}
	if err := w.reg.Invoke(req.Kernel, req.Lo, req.Hi, req.Scalars, req.Ins, outs); err != nil {
		resp.Err = err.Error()
		return resp
	}
	w.mu.Lock()
	w.served++
	w.mu.Unlock()
	resp.Outs = outs
	return resp
}

// Client executes tiles on one worker over a persistent connection.
// Safe for concurrent use; requests serialize on the connection. After a
// transport failure the next request redials.
type Client struct {
	addr string

	mu      sync.Mutex // serializes requests; guards enc, dec, mirror, resends
	enc     *gob.Encoder
	dec     *gob.Decoder
	mirror  *bcastCache // the keys the worker's cache holds, with sizes
	resends int         // UnknownKey replies answered with a resend

	connMu sync.Mutex // guards conn and closed, so Close can interrupt a request
	conn   net.Conn   // nil after a transport failure
	closed bool
}

// Dial connects to a worker.
func Dial(addr string) (*Client, error) { return dial(addr, cacheBytes) }

func dial(addr string, cacheMax int64) (*Client, error) {
	c := &Client{addr: addr, mirror: newBcastCache(cacheMax)}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect opens a fresh connection, whose worker-side cache starts empty.
// Callers hold c.mu (or own c exclusively).
func (c *Client) connect() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("remoteexec: dial %s: %w", c.addr, err)
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		conn.Close()
		return fmt.Errorf("remoteexec: %s: client closed", c.addr)
	}
	c.conn = conn
	c.enc, c.dec = gob.NewEncoder(conn), gob.NewDecoder(conn)
	c.mirror.reset()
	return nil
}

// drop discards a connection that a transport failure left unusable. The
// worker's cache dies with it, so the mirror empties too. Callers hold c.mu.
func (c *Client) drop() {
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
	c.enc, c.dec = nil, nil
	c.mirror.reset()
}

// Addr reports the worker address.
func (c *Client) Addr() string { return c.addr }

// Close releases the connection; a request in flight fails.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// RunTile executes one tile remotely. An input with a nonzero key travels
// as bytes only if the worker does not already hold it on this connection.
func (c *Client) RunTile(req *TileRequest) ([][]byte, error) {
	if req.Keys != nil && len(req.Keys) != len(req.Ins) {
		return nil, fmt.Errorf("remoteexec: %s: %d input keys for %d inputs", c.addr, len(req.Keys), len(req.Ins))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(req)
	if err == nil && resp.UnknownKey {
		c.resends++
		resp, err = c.roundTrip(req)
	}
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("remoteexec: %s: %s", c.addr, resp.Err)
	}
	if len(resp.Outs) != len(req.OutSizes) {
		return nil, fmt.Errorf("remoteexec: %s: got %d outputs, want %d", c.addr, len(resp.Outs), len(req.OutSizes))
	}
	for i := range resp.Outs {
		if int64(len(resp.Outs[i])) != req.OutSizes[i] {
			return nil, fmt.Errorf("remoteexec: %s: output %d is %d bytes, want %d",
				c.addr, i, len(resp.Outs[i]), req.OutSizes[i])
		}
	}
	return resp.Outs, nil
}

// roundTrip sends req as it travels on the wire and reads the reply,
// redialing first if a transport failure dropped the connection.
func (c *Client) roundTrip(req *TileRequest) (*TileResponse, error) {
	if c.enc == nil {
		if err := c.connect(); err != nil {
			return nil, err
		}
	}
	if err := c.enc.Encode(c.onWire(req)); err != nil {
		c.drop()
		return nil, fmt.Errorf("remoteexec: %s: %w", c.addr, err)
	}
	var resp TileResponse
	if err := c.dec.Decode(&resp); err != nil {
		c.drop()
		return nil, fmt.Errorf("remoteexec: %s: %w", c.addr, err)
	}
	if resp.UnknownKey {
		c.mirror.reset()
	}
	return &resp, nil
}

// onWire returns req as it travels on the connection: a keyed input the
// worker already holds goes as its key alone. It updates the mirror in
// input order, exactly as resolve updates the worker's cache.
func (c *Client) onWire(req *TileRequest) *TileRequest {
	if req.Keys == nil {
		return req
	}
	w := *req
	w.Ins = make([][]byte, len(req.Ins))
	w.Keys = make([]Key, len(req.Keys))
	for k, in := range req.Ins {
		key := req.Keys[k]
		if key == (Key{}) || len(in) == 0 {
			w.Ins[k] = in // inline: unkeyed, or nothing worth caching
			continue
		}
		w.Keys[k] = key
		if _, held := c.mirror.get(key); !held {
			w.Ins[k] = in
			c.mirror.put(key, int64(len(in)), nil)
		}
	}
	return &w
}

// Pool load-balances tiles across several workers, one persistent client
// per address, dispatching each tile to the worker its simulated placement
// chose (tile -> worker affinity preserved).
type Pool struct {
	clients []*Client
}

// NewPool dials every worker address.
func NewPool(addrs []string) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remoteexec: empty worker list")
	}
	p := &Pool{}
	for _, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// Size reports the worker count.
func (p *Pool) Size() int { return len(p.clients) }

// Run executes a tile on the worker with the given index (mod pool size).
func (p *Pool) Run(worker int, req *TileRequest) ([][]byte, error) {
	if len(p.clients) == 0 {
		return nil, fmt.Errorf("remoteexec: empty pool")
	}
	c := p.clients[((worker%len(p.clients))+len(p.clients))%len(p.clients)]
	return c.RunTile(req)
}

// Healthy reports whether every worker answers a trivial probe kernel
// lookup (a failed connection shows up as an error on the next Run; this
// is a cheap liveness check for Available()).
func (p *Pool) Healthy() bool {
	for _, c := range p.clients {
		// A zero-iteration request against a missing kernel exercises
		// the round trip; "not found" still proves liveness.
		_, err := c.RunTile(&TileRequest{Kernel: "__health__", Lo: 0, Hi: 0})
		if err == nil {
			continue
		}
		if isTransport(err) {
			return false
		}
	}
	return true
}

// isTransport distinguishes connection failures from application errors.
func isTransport(err error) bool {
	var netErr net.Error
	if errors.As(err, &netErr) {
		return true
	}
	// gob decode on a closed connection surfaces as io errors wrapped in
	// our fmt errors; the application-level "not found" carries the
	// kernel-missing text instead.
	return !containsKernelMissing(err.Error())
}

func containsKernelMissing(s string) bool {
	return strings.Contains(s, "not found")
}

// Close releases every client.
func (p *Pool) Close() error {
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fillF32 writes a float32 reduction identity into every lane, matching
// the driver-side reduction identities.
func fillF32(b []byte, v float32) {
	bits := math.Float32bits(v)
	for i := 0; i+4 <= len(b); i += 4 {
		binary.LittleEndian.PutUint32(b[i:], bits)
	}
}
