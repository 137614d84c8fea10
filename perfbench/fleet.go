package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// fleet is a router in front of simulate nodes, each on its own real
// 127.0.0.1 listener, started in this process.
type fleet struct {
	nodes   []*service.Server
	router  *service.Router
	url     string
	servers []*http.Server
	serving sync.WaitGroup
}

// startFleet starts n nodes built from nodeCfg(i) and a router over them.
// Every handler is wrapped by tap, which records nothing until its recorder
// is switched on.
func startFleet(n int, nodeCfg func(i int) service.Config, rcfg service.RouterConfig, tap *tap) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		node, err := service.NewServer(nodeCfg(i))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, node)
		url, err := f.serve(tap.wrap(tierNode, node.Handler()))
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, url)
	}
	rcfg.Nodes = urls
	rt, err := service.NewRouter(rcfg)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("start router: %w", err)
	}
	f.router = rt
	if f.url, err = f.serve(tap.wrap(tierRouter, rt.Handler())); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// serve runs h on a fresh loopback listener and returns its base URL.
func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners (router first), the router's background loops
// and the nodes, flushing their stores, and waits for every serve loop.
func (f *fleet) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i := len(f.servers) - 1; i >= 0; i-- {
		if err := f.servers[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	f.serving.Wait()
	if f.router != nil {
		f.router.Close()
	}
	for _, n := range f.nodes {
		if err := n.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// nodeStatusz reads every node's own statusz (the router's aggregate omits
// the store byte counters).
func (f *fleet) nodeStatusz(ctx context.Context) ([]*service.Statusz, error) {
	out := make([]*service.Statusz, len(f.nodes))
	for i, n := range f.nodes {
		st, err := n.Statusz(ctx)
		if err != nil {
			return nil, fmt.Errorf("node %d statusz: %w", i, err)
		}
		out[i] = st
	}
	return out, nil
}

const (
	tierRouter = "router"
	tierNode   = "node"
)

// tap wraps the fleet's http.Handlers. While its recorder is on it opens a
// span per request that carries a batch's trace ID, parented to the calling
// tier's span of the same batch, counts body bytes in and out, and
// classifies node simulate replies as all-hit or with-miss.
type tap struct {
	rec *recorder

	mu      sync.Mutex
	parents map[string]int64 // batch trace ID → client span (router parent)
	routers map[string]int64 // batch trace ID → router span (node parent)

	wireBytes atomic.Int64
	nodeHit   latencySink // node simulate handler ms, all candidates hits
	nodeMiss  latencySink // node simulate handler ms, at least one miss
}

func newTap(rec *recorder) *tap {
	return &tap{rec: rec, parents: map[string]int64{}, routers: map[string]int64{}}
}

// latencySink is a goroutine-safe latency collector.
type latencySink struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencySink) add(ms float64) {
	l.mu.Lock()
	l.ms = append(l.ms, ms)
	l.mu.Unlock()
}

func (l *latencySink) median() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return median(append([]float64(nil), l.ms...))
}

// clientSpan registers the client span of a batch so the router's span can
// name it as parent; the returned function forgets the batch.
func (t *tap) clientSpan(batch string, id int64) func() {
	if id == 0 {
		return func() {}
	}
	t.mu.Lock()
	t.parents[batch] = id
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.parents, batch)
		delete(t.routers, batch)
		t.mu.Unlock()
	}
}

func (t *tap) wrap(tier string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		batch := r.Header.Get(obs.TraceHeader)
		if !t.rec.on.Load() || batch == "" {
			h.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		parent := t.routers[batch]
		if tier == tierRouter {
			parent = t.parents[batch]
		}
		t.mu.Unlock()
		start := time.Now()
		id, end := t.rec.begin(tier+r.URL.Path, parent, batch, 0)
		if tier == tierRouter {
			t.mu.Lock()
			t.routers[batch] = id
			t.mu.Unlock()
		}
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		end()
		t.wireBytes.Add(body.n + cw.n)
		if tier == tierNode && r.URL.Path == "/v1/simulate" {
			ms := float64(time.Since(start)) / 1e6
			if cw.hits == cw.results {
				t.nodeHit.add(ms)
			} else {
				t.nodeMiss.add(ms)
			}
		}
	})
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// countingWriter counts response body bytes and, in a simulate reply, the
// results and the results served from cache (the JSON encoder writes the
// whole reply in one Write, so the markers are never split).
type countingWriter struct {
	http.ResponseWriter
	n             int64
	results, hits int
}

var (
	markStats = []byte(`"stats":`)
	markHit   = []byte(`"cache_hit":true`)
)

func (c *countingWriter) Write(p []byte) (int, error) {
	c.results += bytes.Count(p, markStats)
	c.hits += bytes.Count(p, markHit)
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
