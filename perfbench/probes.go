package main

import (
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/fatbin"
	"ompcloud/internal/serve"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
)

// The probes measure layers from outside the program: each wraps a public
// interface (storage.Store, serve.Executor, a fatbin registry, a TCP
// address) and counts or times what passes through it without changing it.
// probes_test.go checks that outputs stay bit-identical and that the counts
// match the bytes that actually passed.

// journalPrefix is where the service daemon keeps its write-ahead journal.
const journalPrefix = "serve/journal/"

// storeProbe counts and times every call into a storage.Store.
type storeProbe struct {
	inner storage.Store

	ops        atomic.Int64
	bytes      atomic.Int64 // payload bytes put plus bytes returned by gets
	errs       atomic.Int64
	busyNS     atomic.Int64
	journalOps atomic.Int64
}

func newStoreProbe(inner storage.Store) *storeProbe { return &storeProbe{inner: inner} }

func (p *storeProbe) note(key string, n int, t0 time.Time, err error) {
	p.busyNS.Add(int64(time.Since(t0)))
	p.ops.Add(1)
	p.bytes.Add(int64(n))
	if err != nil {
		p.errs.Add(1)
	}
	if strings.HasPrefix(key, journalPrefix) {
		p.journalOps.Add(1)
	}
}

func (p *storeProbe) Put(key string, data []byte) error {
	t0 := time.Now()
	err := p.inner.Put(key, data)
	p.note(key, len(data), t0, err)
	return err
}

func (p *storeProbe) Get(key string) ([]byte, error) {
	t0 := time.Now()
	b, err := p.inner.Get(key)
	p.note(key, len(b), t0, err)
	return b, err
}

// GetAppend keeps the inner store's append-read fast path visible through
// the probe (storage.GetAppend falls back to Get plus a copy otherwise).
func (p *storeProbe) GetAppend(key string, dst []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := storage.GetAppend(p.inner, key, dst)
	p.note(key, len(out)-len(dst), t0, err)
	return out, err
}

func (p *storeProbe) Delete(key string) error {
	t0 := time.Now()
	err := p.inner.Delete(key)
	p.note(key, 0, t0, err)
	return err
}

func (p *storeProbe) List(prefix string) ([]string, error) {
	t0 := time.Now()
	keys, err := p.inner.List(prefix)
	p.note(prefix, 0, t0, err)
	return keys, err
}

func (p *storeProbe) Stat(key string) (int64, error) {
	t0 := time.Now()
	n, err := p.inner.Stat(key)
	p.note(key, 0, t0, err)
	return n, err
}

var (
	_ storage.Store        = (*storeProbe)(nil)
	_ storage.AppendGetter = (*storeProbe)(nil)
)

// execRun is what the executor probe saw of one job.
type execRun struct {
	start, end time.Time
	report     *trace.Report // nil when the job failed before reporting
}

// execProbe times every serve.Executor.Run and keeps the job's report,
// keyed by the job's client label. The benchmark gives every submission a
// unique label, which is how a client's send/receive timestamps meet the
// executor's start/end.
type execProbe struct {
	inner serve.Executor

	mu   sync.Mutex
	runs map[string]execRun
}

func newExecProbe(inner serve.Executor) *execProbe {
	return &execProbe{inner: inner, runs: make(map[string]execRun)}
}

func (p *execProbe) Run(job *serve.Job, cores int) serve.Result {
	start := time.Now()
	res := p.inner.Run(job, cores)
	r := execRun{start: start, end: time.Now(), report: res.Report}
	p.mu.Lock()
	p.runs[job.Client] = r
	p.mu.Unlock()
	return res
}

// take removes and returns the run recorded for a client label.
func (p *execProbe) take(client string) (execRun, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.runs[client]
	delete(p.runs, client)
	return r, ok
}

var _ serve.Executor = (*execProbe)(nil)

// timingRegistry is a fresh fatbin registry holding every kernel of a
// source registry under its own name, each body wrapped with a timer. A
// remote worker serving from it reports how many kernel calls it made and
// how long the bodies ran, without the RPC around them.
type timingRegistry struct {
	reg    *fatbin.Registry
	busyNS atomic.Int64

	// flipAt, when positive, makes the flipAt-th kernel call flip the
	// lowest bit of its first output byte. Tests use it to prove that the
	// output gate catches a one-bit error.
	flipAt atomic.Int64
	seq    atomic.Int64
}

func newTimingRegistry(src *fatbin.Registry) (*timingRegistry, error) {
	t := &timingRegistry{reg: fatbin.NewRegistry()}
	for _, name := range src.Names() {
		k, err := src.Lookup(name)
		if err != nil {
			return nil, err
		}
		t.reg.Register(name, t.wrap(k.Body))
	}
	return t, nil
}

func (t *timingRegistry) wrap(body fatbin.LoopBody) fatbin.LoopBody {
	return func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		t0 := time.Now()
		err := body(lo, hi, scalars, in, out)
		t.busyNS.Add(int64(time.Since(t0)))
		if n := t.seq.Add(1); n == t.flipAt.Load() && len(out) > 0 && len(out[0]) > 0 {
			out[0][0] ^= 1
		}
		return err
	}
}

// relay is a byte-counting TCP forwarder: registered with the daemon in
// place of a worker's address, it carries every tile RPC to the worker and
// counts the bytes in each direction.
type relay struct {
	ln     net.Listener
	target string

	up   atomic.Int64 // client to worker
	down atomic.Int64 // worker to client

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay: %w", err)
	}
	r := &relay{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// track registers conns for Close; false means the relay is closing.
func (r *relay) track(conns ...net.Conn) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false
	}
	for _, c := range conns {
		r.conns[c] = struct{}{}
	}
	return true
}

func (r *relay) untrack(conns ...net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range conns {
		delete(r.conns, c)
		c.Close()
	}
}

func (r *relay) acceptLoop() {
	defer r.wg.Done()
	for {
		client, err := r.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", r.target)
		if err != nil {
			client.Close()
			continue
		}
		if !r.track(client, server) {
			client.Close()
			server.Close()
			return
		}
		r.wg.Add(1)
		go r.pipe(client, server)
	}
}

// pipe copies both directions until either side closes, then closes both.
func (r *relay) pipe(client, server net.Conn) {
	defer r.wg.Done()
	done := make(chan struct{}, 2) // one send per copy direction
	go func() {
		_, _ = io.Copy(countWriter{server, &r.up}, client) // ends when either side closes
		done <- struct{}{}
	}()
	go func() {
		_, _ = io.Copy(countWriter{client, &r.down}, server)
		done <- struct{}{}
	}()
	<-done
	r.untrack(client, server)
	<-done
}

// close stops accepting, drops every connection and waits for the copies.
func (r *relay) close() error {
	r.mu.Lock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	err := r.ln.Close()
	r.wg.Wait()
	return err
}

type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// storeCounts is a snapshot of a storeProbe's counters.
type storeCounts struct{ ops, bytes, errs, busyNS, journal int64 }

func (p *storeProbe) counts() storeCounts {
	return storeCounts{
		ops: p.ops.Load(), bytes: p.bytes.Load(), errs: p.errs.Load(),
		busyNS: p.busyNS.Load(), journal: p.journalOps.Load(),
	}
}

func (c storeCounts) sub(o storeCounts) storeCounts {
	return storeCounts{
		ops: c.ops - o.ops, bytes: c.bytes - o.bytes, errs: c.errs - o.errs,
		busyNS: c.busyNS - o.busyNS, journal: c.journal - o.journal,
	}
}

// perOp writes the storage layer's per-op ledger entries.
func (c storeCounts) perOp(L map[string]float64, n float64) {
	L["storage.ops_per_op"] = float64(c.ops) / n
	L["storage.mb_per_op"] = float64(c.bytes) / 1e6 / n
	L["storage.busy_ms_per_op"] = float64(c.busyNS) / 1e6 / n
	L["storage.errors_per_op"] = float64(c.errs) / n
	L["storage.journal_ops_per_job"] = float64(c.journal) / n
}
