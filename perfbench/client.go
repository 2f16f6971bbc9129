package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/datasynth"
	"repro/internal/fleet"
	"repro/internal/gateway"
)

const (
	// clientConns bounds the client connections in flight to the CPU count
	// of the two-vCPU reference host: more connections than CPUs would make
	// the load generator, not the gateway, set the wall numbers.
	clientConns = 2
	// reqHeader carries the benchmark's request id so the handler span of a
	// traced run joins the client's spans of the same request.
	reqHeader = "X-Perfbench-Req"
)

// planned is one request of an open-loop schedule: its intended send offset
// from the phase start and its encoded body.
type planned struct {
	at   time.Duration
	body []byte
}

// poissonSchedule fixes a phase's whole schedule before the first send:
// Poisson arrivals at rate per second for dur, each request's model, tenant
// and size drawn by pick.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration, pick func(*rand.Rand) gateway.InferRequest) []planned {
	var out []planned
	arr := datasynth.Poisson{Rate: rate}
	for at := 0.0; at < dur.Seconds(); at += arr.Next(rng) {
		out = append(out, plan(at, pick(rng)))
	}
	return out
}

func plan(atSec float64, r gateway.InferRequest) planned {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of ints always encodes
	}
	return planned{at: time.Duration(atSec * float64(time.Second)), body: body}
}

// sample is one request's client-side record.
type sample struct {
	id                   int
	intended, sent, done time.Time
	outcome              string
	sojournSim           float64
	err                  error
}

func (s *sample) wallMs() float64 { return s.done.Sub(s.intended).Seconds() * 1e3 }
func (s *sample) lagUs() float64  { return s.sent.Sub(s.intended).Seconds() * 1e6 }
func (s *sample) rttUs() float64  { return s.done.Sub(s.sent).Seconds() * 1e6 }
func (s *sample) answered() bool  { return s.err == nil }
func (s *sample) servedOK() bool {
	return s.err == nil && (s.outcome == "served" || s.outcome == "split")
}
func (s *sample) shedOutcome() bool { return s.err == nil && !s.servedOK() }

// liveGateway is a gateway over a pool, served over HTTP on a loopback
// listener in this process, with the benchmark's session writer.
type liveGateway struct {
	g       *gateway.Gateway
	handler http.Handler // the gateway's own handler, untraced
	srv     *http.Server
	served  chan error
	conns   [clientConns]*clientConn
	session *timedWriter
	tr      *tracer
	nextID  int
	procs   int // GOMAXPROCS to restore at stop
}

func startGateway(sp *servingPool, tr *tracer) (*liveGateway, error) {
	sess := &timedWriter{tr: tr}
	g, err := gateway.New(gateway.Config{Pool: sp.pool, Warp: 1, Session: sess})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.Close()
		return nil, err
	}
	h := g.Handler()
	front := h
	if tr != nil {
		front = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			if r.URL.Path == "/v1/infer" {
				id, _ := strconv.Atoi(r.Header.Get(reqHeader))
				tr.record("gateway.handler", id, t0, time.Now())
			}
		})
	}
	lg := &liveGateway{
		g: g, handler: h, session: sess, tr: tr,
		srv:    &http.Server{Handler: front},
		served: make(chan error, 1),
	}
	for i := range lg.conns {
		lg.conns[i] = &clientConn{addr: ln.Addr().String()}
	}
	lg.procs = runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1)
	go func() { lg.served <- lg.srv.Serve(ln) }()
	return lg, nil
}

// stop shuts the HTTP server down, waits for it, and closes the gateway,
// which drains the engine and finalizes the session log.
func (lg *liveGateway) stop() (*fleet.Report, error) {
	for _, cc := range lg.conns {
		cc.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	shutErr := lg.srv.Shutdown(ctx)
	if err := <-lg.served; err != http.ErrServerClosed {
		shutErr = err
	}
	runtime.GOMAXPROCS(lg.procs)
	rep, err := lg.g.Close()
	if err == nil {
		err = shutErr
	}
	return rep, err
}

// phaseResult is one open-loop phase as the client saw it.
type phaseResult struct {
	rate       float64
	samples    []sample
	scrapes    []float64 // each /v1/metrics call, microseconds
	scrapeErrs int
	elapsed    time.Duration
}

// run drives one open-loop phase: the schedule is fixed, at most clientConns
// requests are on the wire at once, and every latency counts from the
// request's intended send time, so a stalled server shows in the numbers
// instead of thinning the load. scrapeEvery > 0 also scrapes /v1/metrics at
// that cadence for the phase's length.
func (lg *liveGateway) run(plan []planned, rate float64, scrapeEvery time.Duration) *phaseResult {
	res := &phaseResult{rate: rate, samples: make([]sample, len(plan))}
	ids := make([]int, len(plan))
	for i := range ids {
		ids[i] = lg.nextID
		lg.nextID++
	}
	start := time.Now()
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if scrapeEvery > 0 {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			res.scrapes, res.scrapeErrs = lg.scrapeLoop(scrapeEvery, stopScrape)
		}()
	}
	// One pacer releases each request at its intended time to whichever
	// worker is free; with both busy it waits, and the wait shows as send lag.
	work := make(chan int)
	var wg sync.WaitGroup
	for _, cc := range lg.conns {
		wg.Add(1)
		go func(cc *clientConn) {
			defer wg.Done()
			for i := range work {
				res.samples[i] = lg.post(cc, ids[i], start.Add(plan[i].at), plan[i].body)
			}
		}(cc)
	}
	for i := range plan {
		sleepUntil(start.Add(plan[i].at))
		work <- i
	}
	close(work)
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()
	res.elapsed = time.Since(start)
	return res
}

// sleepUntil blocks until t. Go's runtime timers wake up to a millisecond
// late on an idle Linux host, which would make the generator, not the
// gateway, set the latencies; nanosleep wakes within tens of microseconds.
// It holds its scheduler slot while it sleeps, which is why startGateway
// adds one slot for the pacer.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop on the remaining time
	}
}

// post sends one inference request on cc and decodes the answer.
func (lg *liveGateway) post(cc *clientConn, id int, intended time.Time, body []byte) sample {
	s := sample{id: id, intended: intended, sent: time.Now()}
	out, err := cc.infer(id, body)
	s.done = time.Now()
	s.err = err
	s.outcome, s.sojournSim = out.Outcome, out.SojournSim
	if lg.tr != nil {
		lg.tr.record("loadgen.request", id, s.intended, s.done)
		lg.tr.record("loadgen.send_lag", id, s.intended, s.sent)
		lg.tr.record("loadgen.rtt", id, s.sent, s.done)
	}
	return s
}

// clientConn is one keep-alive HTTP/1.1 connection that one worker drives
// synchronously: it writes the request and reads the response on its own
// goroutine, with none of net/http's per-connection client goroutines
// between the worker and the socket, so the generator adds few scheduler
// hand-offs of its own to what it measures.
type clientConn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	buf  []byte
}

func (cc *clientConn) infer(id int, body []byte) (gateway.InferResponse, error) {
	var out gateway.InferResponse
	if cc.c == nil {
		c, err := net.Dial("tcp", cc.addr)
		if err != nil {
			return out, err
		}
		cc.c, cc.r = c, bufio.NewReader(c)
	}
	cc.buf = fmt.Appendf(cc.buf[:0], "POST /v1/infer HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n%s: %d\r\nContent-Length: %d\r\n\r\n",
		cc.addr, reqHeader, id, len(body))
	cc.buf = append(cc.buf, body...)
	if _, err := cc.c.Write(cc.buf); err != nil {
		cc.close()
		return out, err
	}
	resp, err := http.ReadResponse(cc.r, nil)
	if err != nil {
		cc.close()
		return out, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		cc.close()
	}
	switch {
	case err != nil:
		return out, err
	case resp.StatusCode != http.StatusOK:
		return out, fmt.Errorf("infer returned %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return out, json.Unmarshal(raw, &out)
}

func (cc *clientConn) close() {
	if cc.c != nil {
		cc.c.Close()
		cc.c, cc.r = nil, nil
	}
}

// scrapeLoop calls GET /v1/metrics every period until stop. Scrapes go
// straight to the gateway's handler in this process, so they take none of
// the client's connections; they contend for the engine lock exactly as a
// remote scrape would.
func (lg *liveGateway) scrapeLoop(period time.Duration, stop <-chan struct{}) (durUs []float64, errs int) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return durUs, errs
		case <-tick.C:
		}
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
		t0 := time.Now()
		lg.handler.ServeHTTP(rec, req)
		t1 := time.Now()
		lg.tr.record("gateway.scrape", -1, t0, t1)
		var m gateway.MetricsResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &m) != nil {
			errs++
		}
		durUs = append(durUs, t1.Sub(t0).Seconds()*1e6)
	}
}

// timedWriter is the session log sink handed to gateway.Config.Session. It
// keeps the log in memory and times every write the gateway's buffered
// session writer flushes into it.
type timedWriter struct {
	tr   *tracer
	mu   sync.Mutex
	buf  bytes.Buffer
	busy atomic.Int64 // nanoseconds inside Write
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	w.mu.Lock()
	n, err := w.buf.Write(p)
	w.mu.Unlock()
	t1 := time.Now()
	w.busy.Add(int64(t1.Sub(t0)))
	w.tr.record("gateway.session_write", -1, t0, t1)
	return n, err
}

func (w *timedWriter) bytesLen() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Len()
}

func (w *timedWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Bytes()
}
