package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Loopback calibration for the serving latencies. A serving request's
// latency is mostly the host's loopback round trip, the HTTP stack and
// goroutine wake-ups, which a shared host's stolen time and idle exits
// move by more than a change is judged by; the kernel of calib.go
// measures core speed, not these. So before each nominal phase and after
// the last, the generator also sends an open-loop phase of the same shape
// and rate, through a client like its own, to a bare net/http server of
// the benchmark's own whose one handler writes a fixed body. Each serving
// latency percentile is scaled by the same percentile of all echo
// requests over its value on the reference host. The echo path runs
// nothing of the program, so a slower service still moves the scaled
// latencies in full.

// echoRefP50Ms and echoRefTailMs are the echo requests' median and
// serve-query's tail percentile (p75) of latency from due time on the
// reference host (a 2-vCPU Intel Xeon VM) at serve-query's nominal rate.
const (
	echoRefP50Ms  = 0.18
	echoRefTailMs = 0.24
)

// echoBody is the echo handler's answer, about the size of a query's.
var echoBody = bytes.Repeat([]byte("e"), 96)

// echoProbe is the echo server and its client.
type echoProbe struct {
	hs   *http.Server
	done chan struct{}
	cl   *client
	op   *serveOp
}

// startEcho starts the echo server and a client with n connections.
func startEcho(n int) (*echoProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &echoProbe{done: make(chan struct{})}
	p.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(echoBody)
		})}
	go func() {
		defer close(p.done)
		p.hs.Serve(ln)
	}()
	p.cl = newClient("http://"+ln.Addr().String(), n)
	p.op = &serveOp{route: "echo", method: http.MethodGet, path: "/echo",
		check: func(status int, body []byte) error {
			if status != http.StatusOK || !bytes.Equal(body, echoBody) {
				return fmt.Errorf("echo answered %d with %d bytes", status, len(body))
			}
			return nil
		}}
	return p, nil
}

// phase sends one open-loop echo phase on the given due times and
// returns each request's latency from its due time, in ms.
func (p *echoProbe) phase(dues []time.Duration) ([]float64, error) {
	outs := runOpenLoop(dues, len(p.cl.bufs), func(w, i int) error {
		status, body, err := p.cl.do(w, p.op, 0)
		if err != nil {
			return err
		}
		return p.op.check(status, body)
	})
	lat := make([]float64, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("echo phase: %w", o.Err)
		}
		lat[i] = ms(o.Latency)
	}
	return lat, nil
}

// close stops the echo server and waits for it.
func (p *echoProbe) close() error {
	p.cl.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	<-p.done
	return err
}
