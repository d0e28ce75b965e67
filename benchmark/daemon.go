package main

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"

	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/serve/client"
)

// daemon is an in-process flashd: serve.New over a one-worker pool with
// an in-memory memo store, behind a loopback listener.
type daemon struct {
	pool  *runner.Pool
	srv   *serve.Server
	hs    *http.Server
	wg    sync.WaitGroup
	url   string
	conns []*http.Client
}

func startDaemon() (*daemon, error) {
	store, err := runner.NewStore("")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{pool: runner.New(1, store), url: "http://" + ln.Addr().String()}
	d.srv = serve.New(serve.Options{Pool: d.pool})
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return d, nil
}

// client returns a typed client on one keep-alive connection of its own.
func (d *daemon) client() *client.Client {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	d.conns = append(d.conns, hc)
	return client.New(d.url, hc)
}

// close stops the daemon and waits for its goroutines: the listener's
// accept loop, every connection handler, and the job workers.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, hc := range d.conns {
		hc.CloseIdleConnections()
	}
	_ = d.hs.Shutdown(ctx)
	d.wg.Wait()
	_ = d.srv.Drain(ctx)
}
