//go:build unix

package serve

import (
	"encoding/json"
	"net/http"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
)

// TestReplayImagePrepareHoldsNoLock pins the image cache's locking: a
// request for a cached image returns while another trace's prepare is
// stuck in its disk read, concurrent first requests for one trace share
// one prepare, and a failed prepare is not cached. The stuck read is a
// FIFO under a valid fingerprint: opening it blocks until the test
// opens the write end.
func TestReplayImagePrepareHoldsNoLock(t *testing.T) {
	traces, err := runner.NewTraceStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts, gate := newTestServer(t, Options{Traces: traces})
	close(gate)
	resp, data := postJSON(t, ts.URL+"/v1/captures?wait=true",
		[]byte(`{"base":"simos-mipsy","procs":2,"workload":{"name":"fft","logn":10}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture: status %d, body %s", resp.StatusCode, data)
	}
	var capture CaptureResponse
	if err := json.Unmarshal(data, &capture); err != nil {
		t.Fatal(err)
	}
	fpA, fpB := capture.Trace, "b0b0"

	imgs := make([]*machine.ReplayImage, 8)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if imgs[i], err = s.replayImage(fpA); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	for _, img := range imgs {
		if img == nil || img != imgs[0] {
			t.Fatal("concurrent first requests for one trace prepared more than one image")
		}
	}

	if err := syscall.Mkfifo(traces.Path(fpB), 0o600); err != nil {
		t.Skipf("no FIFOs here: %v", err)
	}
	cold := make(chan error, 1)
	go func() {
		_, err := s.replayImage(fpB)
		cold <- err
	}()
	// Returns once prepare B has the read end open: it is now inside
	// its disk read and stays there until the write end closes.
	w, err := os.OpenFile(traces.Path(fpB), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	hit := make(chan *machine.ReplayImage, 1)
	go func() {
		img, _ := s.replayImage(fpA)
		hit <- img
	}()
	select {
	case img := <-hit:
		if img != imgs[0] {
			t.Fatal("hit returned a different image")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a hit on a cached image waits behind another trace's prepare")
	}

	if _, err := w.Write([]byte("not a container")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := <-cold; err == nil {
		t.Fatal("prepare of a garbage container succeeded")
	}
	container, err := os.ReadFile(traces.Path(fpA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(traces.Path(fpB)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traces.Path(fpB), container, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := s.replayImage(fpB); err != nil {
		t.Fatalf("the failed prepare was cached: %v", err)
	}
}
