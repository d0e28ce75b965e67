package main

import (
	"bufio"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain makes the test binary a flashd when FLASHD_MAIN=1, so a test
// can boot the daemon as a child process and read its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("FLASHD_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

var listening = regexp.MustCompile(`listening on (\S+) `)

// daemon boots flashd with args on a free port and returns its base URL
// and a stop function that sends SIGTERM and returns the exit status and
// everything the daemon logged.
func daemon(t *testing.T, args ...string) (base string, stop func() (int, string)) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "FLASHD_MAIN=1")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addr := make(chan string, 1)
	var logged strings.Builder
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			logged.WriteString(sc.Text() + "\n")
			if m := listening.FindStringSubmatch(sc.Text()); m != nil {
				addr <- m[1]
			}
		}
	}()
	stop = func() (int, string) {
		cmd.Process.Signal(syscall.SIGTERM)
		<-done
		err := cmd.Wait()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatal(err)
		}
		return cmd.ProcessState.ExitCode(), logged.String()
	}
	select {
	case a := <-addr:
		return "http://" + a, stop
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		<-done
		cmd.Wait()
		t.Fatalf("flashd never listened:\n%s", logged.String())
		return "", nil
	}
}

// TestUnwritableCacheEntryFailsTheDrain: a -cache-dir entry that cannot
// be written (a directory squats at its path, which fails the rename
// even for root) still answers the run from memory, but the drain logs
// the directory with the error and exits 1, and no temp file is left.
func TestUnwritableCacheEntryFailsTheDrain(t *testing.T) {
	dir := t.TempDir()
	submit := func(base string) {
		t.Helper()
		body := `{"base":"simos-mipsy","procs":1,"workload":{"name":"snbench.restart","lines":8}}`
		resp, err := http.Post(base+"/v1/runs?wait=true", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
	}

	base, stop := daemon(t, "-cache-dir", dir)
	submit(base)
	if status, logged := stop(); status != 0 {
		t.Fatalf("a clean drain exited %d:\n%s", status, logged)
	}
	entries, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(entries) == 0 {
		t.Fatal("the run left no cache entry")
	}
	for _, e := range entries {
		if err := os.Remove(e); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(e, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	base, stop = daemon(t, "-cache-dir", dir)
	submit(base)
	status, logged := stop()
	if status != 1 || !strings.Contains(logged, "cache "+dir+": ") {
		t.Errorf("exit %d; want 1 with the log naming cache %s:\n%s", status, dir, logged)
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) > 0 {
		t.Errorf("failed writes left temp files: %v", tmp)
	}
}
