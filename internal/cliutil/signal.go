package cliutil

import (
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

// NotifyShutdown runs handler in its own goroutine on the first SIGINT
// or SIGTERM and returns a stop function that disarms the handler (for
// the normal exit path). The handler owns termination: a CLI flushes
// its artifacts and exits, a daemon drains its queue first. A second
// signal while the handler runs kills the process the default way,
// since the subscription is released before the handler starts.
func NotifyShutdown(handler func(os.Signal)) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		signal.Stop(ch)
		handler(sig)
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// ExitOnSignal arranges for an interrupted CLI to exit cleanly: on
// SIGINT or SIGTERM the artifact sinks are finalized — the
// -metrics-out report is written with whatever ran before the
// interrupt, profiles and traces are closed — and the process exits
// with the conventional 128+signal status. The caller arms it after
// Finish and disarms via the returned stop on the normal path (where
// its own Close writes the artifacts instead).
func (f *Flags) ExitOnSignal() (stop func()) {
	return NotifyShutdown(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "interrupted by %v; flushing artifacts\n", sig)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(128 + int(sig.(syscall.Signal)))
	})
}

// sizeFlag is a byte count accepting a plain integer or a
// KiB/MiB/GiB-suffixed value (decimal KB/MB/GB are accepted as the
// same binary units).
type sizeFlag int64

func (s *sizeFlag) String() string { return strconv.FormatInt(int64(*s), 10) }

func (s *sizeFlag) Set(v string) error {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(v))
	for suffix, m := range map[string]int64{
		"KIB": 1 << 10, "KB": 1 << 10, "K": 1 << 10,
		"MIB": 1 << 20, "MB": 1 << 20, "M": 1 << 20,
		"GIB": 1 << 30, "GB": 1 << 30, "G": 1 << 30,
	} {
		if strings.HasSuffix(upper, suffix) && len(upper) > len(suffix) {
			upper = strings.TrimSuffix(upper, suffix)
			mult = m
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return fmt.Errorf("size %q: want bytes or a KiB/MiB/GiB suffix", v)
	}
	if n < 0 {
		return fmt.Errorf("size %q: negative", v)
	}
	if n > math.MaxInt64/mult {
		return fmt.Errorf("size %q: more than %d bytes", v, int64(math.MaxInt64))
	}
	*s = sizeFlag(n * mult)
	return nil
}
