// Serveclient: the serving loop end to end in one process — boot the
// flashd server layer on a loopback port, submit a run through the
// typed client, poll its status to done, then resubmit the identical
// request to show the memo cache answering without a second
// simulation. Against a long-lived daemon the client half is all you
// need; point client.New at its address.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"flashsim/internal/param"
	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/serve/client"
)

func main() {
	ctx := context.Background()

	// Server half: a memoizing pool behind the HTTP API, on a port the
	// OS picks. flashd is this plus flags and signal handling.
	store, err := runner.NewStore("") // in-memory; give a dir to survive restarts
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.New(serve.Options{Pool: runner.New(0, store)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	fmt.Printf("serving on http://%s\n\n", ln.Addr())

	// Client half: submit a 4-processor FFT run with one parameter
	// override, exactly what the -sim/-set CLI flags would express.
	c := client.New("http://"+ln.Addr().String(), nil)
	req := serve.RunRequest{
		ConfigSpec: serve.ConfigSpec{
			Base:  "simos-mipsy",
			Procs: 4,
			Set:   []param.Setting{{Path: "cpu.clock_mhz", Value: "225"}},
		},
		Workload: serve.Workload("fft", map[string]any{"logn": 12}),
	}

	st, err := c.SubmitRun(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (fingerprint %.12s…)\n", st.ID, st.Fingerprint)
	for !st.State.Terminal() {
		time.Sleep(10 * time.Millisecond)
		if st, err = c.Job(ctx, st.ID); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %s\n", st.ID, st.State)
	}
	res, err := c.RunResult(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run: %d instructions, %v total ticks (cached=%v)\n\n",
		res.Result.Instructions, res.Result.Total, res.Job.Cached)

	// The identical request again: same fingerprint, answered from the
	// memo store without touching the pool.
	warm, err := c.Run(ctx, req)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm run: %d instructions, %v total ticks (cached=%v)\n",
		warm.Result.Instructions, warm.Result.Total, warm.Job.Cached)
	fmt.Printf("\npool executed %d simulation(s) for 2 requests\n", srv.Pool().Stats().Ran)

	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
}
