package cliutil_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flashsim/internal/obs"
)

// TestMetricsOutWrittenOnClose: with -metrics-out set and a pool built,
// Close writes a parseable obs.Report even when no runs happened.
func TestMetricsOutWrittenOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	f, err := parse(t, "-metrics-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Pool(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Schema != obs.ReportSchema {
		t.Fatalf("report schema %d, want %d", rep.Schema, obs.ReportSchema)
	}
}

// TestMetricsOutBadPathFailsAtClose: an unwritable -metrics-out target
// surfaces as a Close error naming the flag, after profiling teardown.
func TestMetricsOutBadPathFailsAtClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")
	f, err := parse(t, "-metrics-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Pool(); err != nil {
		t.Fatal(err)
	}
	err = f.Close()
	if err == nil {
		t.Fatal("Close must fail when the metrics file cannot be written")
	}
	if !strings.Contains(err.Error(), "-metrics-out") {
		t.Fatalf("error does not name the flag: %v", err)
	}
}

// TestMetricsOutWithoutPoolIsQuietNoop: a command that fails before
// building its pool has nothing to report; Close must not fabricate a
// file or an error.
func TestMetricsOutWithoutPoolIsQuietNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	f, err := parse(t, "-metrics-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("no pool was built, yet a metrics file appeared (stat err: %v)", err)
	}
}

// TestBadCacheDirFailsAtPool: a -cache-dir that cannot be created (a
// path component is a regular file) fails Pool construction, not a
// later write.
func TestBadCacheDirFailsAtPool(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := parse(t, "-cache-dir", filepath.Join(file, "nested"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Pool(); err == nil {
		t.Fatal("Pool must fail when the cache dir cannot be created")
	}
}

// TestCacheMaxWithoutCacheDirFailsAtFinish: a byte bound with no
// directory has nothing to bound and would leave the in-memory store
// unbounded; Finish rejects it and names both flags.
func TestCacheMaxWithoutCacheDirFailsAtFinish(t *testing.T) {
	_, err := parse(t, "-cache-max-bytes", "1MiB")
	if err == nil {
		t.Fatal("-cache-max-bytes without -cache-dir must fail Finish")
	}
	for _, name := range []string{"-cache-max-bytes", "-cache-dir"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not name %s: %v", name, err)
		}
	}
	if _, err := parse(t, "-cache-max-bytes", "0"); err != nil {
		t.Errorf("an explicit unbounded -cache-max-bytes 0 needs no -cache-dir: %v", err)
	}
}

// TestBadArtifactSinksFailAtFinish: unwritable -cpuprofile and -trace
// targets are caught by Finish, before any simulation work starts.
func TestBadArtifactSinksFailAtFinish(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "dir")
	if _, err := parse(t, "-cpuprofile", filepath.Join(missing, "cpu.pb")); err == nil {
		t.Error("bad -cpuprofile must fail Finish")
	}
	if _, err := parse(t, "-trace", filepath.Join(missing, "trace.out")); err == nil {
		t.Error("bad -trace must fail Finish")
	}
}

// TestBadMemProfileFailsAtClose: -memprofile is written at Close; a bad
// path must surface there.
func TestBadMemProfileFailsAtClose(t *testing.T) {
	f, err := parse(t, "-memprofile", filepath.Join(t.TempDir(), "no", "dir", "mem.pb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("Close must fail when the memory profile cannot be written")
	}
}
