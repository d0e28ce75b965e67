// Command flashd is the simulation daemon: it keeps one warm runner
// pool (and its memo cache) behind an HTTP API, so repeated
// experiments pay the process start-up and cache population once.
//
//	flashd -addr :8023 -cache-dir /var/cache/flashsim -cache-max-bytes 256MiB
//
// Several replicas on one host need nothing more than a shared
// -cache-dir: every result is a file there, a memory miss reads through
// to it, so a run any replica computed is a cached hit on the others and
// survives the replica that computed it.
//
// Endpoints (see internal/serve):
//
//	POST   /v1/runs              submit a run (core.ConfigSpec {base, mhz, procs, seed, set} + workload); ?wait=true blocks for the result
//	GET   /v1/jobs              list jobs; /v1/jobs/{id} one status
//	GET    /v1/jobs/{id}/result  fetch a finished job's payload
//	DELETE /v1/jobs/{id}         cancel
//	GET    /metrics              Prometheus exposition
//	GET    /v1/params            the tunable-parameter registry
//	GET    /healthz              liveness ("ok" or "draining")
//
// Calibrations, the paper's figures and trace capture and replay are
// not served; they are `flashsim validate tuning`, `flashsim validate
// figureN` and `flashsim trace`. A machine is configured per request
// (base, set), so flashd takes no -config or -set.
//
// A submission that could never run (malformed, unknown parameter or
// workload, a config machine.Config.Validate rejects, procs over 1024)
// answers 400 before it is queued. A full queue answers 429 with
// Retry-After; SIGINT/SIGTERM drains: admissions stop (503), accepted
// jobs finish, the -metrics-out report is flushed, and the process
// exits 0 — or 1 when the report, or a -cache-dir entry, could not be
// written.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"flashsim/internal/cliutil"
	"flashsim/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() (status int) {
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	log.SetPrefix("flashd: ")
	cf := cliutil.RegisterOn(flag.CommandLine)
	addr := flag.String("addr", ":8023", "listen address (port 0 picks a free port; the resolved address is logged)")
	queueDepth := flag.Int("queue-depth", 64, "accepted-but-unstarted jobs to hold before rejecting with 429")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint attached to 429 responses")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for accepted jobs before cancelling them")
	flag.Parse()
	if err := cf.Finish(); err != nil {
		log.Print(err)
		return 1
	}
	// Close runs after the drain: it flushes -metrics-out and reports a
	// -cache-dir entry that could not be written, and either fails the
	// exit status.
	defer func() {
		if err := cf.Close(); err != nil {
			log.Print(err)
			status = 1
		}
	}()

	pool, store, err := cf.Pool()
	if err != nil {
		log.Print(err)
		return 1
	}
	s := serve.New(serve.Options{
		Pool:       pool,
		QueueDepth: *queueDepth,
		RetryAfter: *retryAfter,
	})
	// Listen before serving so the resolved address — not the flag,
	// which may carry port 0 — is what gets logged; the smoke scripts
	// parse this line to find the daemon.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Print(err)
		return 1
	}
	hs := &http.Server{Handler: s.Handler()}

	shutdown := make(chan os.Signal, 1)
	stop := cliutil.NotifyShutdown(func(sig os.Signal) { shutdown <- sig })
	defer stop()

	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	if bound := store.MaxBytes(); bound > 0 {
		log.Printf("cache bounded at %d bytes (%d on disk)", bound, store.DiskBytes())
	}
	log.Printf("listening on %s (workers %d, queue depth %d)", ln.Addr(), pool.Workers(), *queueDepth)

	select {
	case err := <-served:
		// The listener died on its own; nothing accepted is recoverable.
		log.Print(err)
		return 1
	case sig := <-shutdown:
		log.Printf("%v received; draining (timeout %s)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	drainErr := s.Drain(ctx)
	cancel()
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	shutdownErr := hs.Shutdown(ctx)
	cancel()
	log.Printf("drained; %s", pool.Stats())

	if drainErr != nil || (shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed)) {
		if drainErr != nil {
			log.Print(drainErr)
		}
		if shutdownErr != nil {
			log.Print(shutdownErr)
		}
		return 1
	}
	return 0
}
