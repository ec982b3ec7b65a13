package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// runChild runs one of the repository's binaries to completion and
// returns its standard output, wall time and peak RSS (MB). The peak is
// the child's VmHWM, read every 2 ms while it runs. The max RSS that
// wait4 reports would not do: a child of a Go process shares the
// parent's memory until it execs, and Linux counts the parent's peak
// into the child's.
func runChild(ctx context.Context, e *env, name string, args ...string) (string, time.Duration, float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	// A child must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return "", 0, 0, err
	}
	exited := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		var hwm float64
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			// Once the child has exited its status has no VmHWM; the error
			// is expected then.
			if mb, err := peakRSSMB(cmd.Process.Pid); err == nil {
				hwm = max(hwm, mb)
			}
			select {
			case <-exited:
				peak <- hwm
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	d := time.Since(t0)
	close(exited)
	rssMB := <-peak
	if err != nil {
		return "", d, 0, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), d, rssMB, nil
}

// server is a child usserve process.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{} // closed when the process has exited
	err  error         // Wait's result, valid after done
}

// startServer starts usserve on a free loopback port with its state
// under e.work/name and returns once /readyz answers, with the time that
// took. A start that loses the port to another process is retried.
func startServer(ctx context.Context, e *env, name string, extra ...string) (*server, time.Duration, error) {
	dir := filepath.Join(e.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		logf, err := os.Create(filepath.Join(dir, "usserve.log"))
		if err != nil {
			return nil, 0, err
		}
		args := append([]string{"-addr", addr, "-dir", filepath.Join(dir, "state"),
			"-queue", fmt.Sprint(serveQueue), "-workers", fmt.Sprint(serveWorkers)}, extra...)
		cmd := exec.Command(filepath.Join(e.bin, "usserve"), args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, 0, err
		}
		s := &server{cmd: cmd, base: "http://" + addr, dir: dir, done: make(chan struct{})}
		go func() {
			s.err = cmd.Wait()
			logf.Close()
			close(s.done)
		}()
		lastErr = s.awaitReady(ctx, 10*time.Second)
		if lastErr == nil {
			return s, time.Since(t0), nil
		}
		s.kill()
	}
	return nil, 0, fmt.Errorf("usserve did not become ready: %w", lastErr)
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// awaitReady polls /readyz every 100 µs: a server starts in a few
// milliseconds, and a coarser poll would quantize the set-up time. The
// pause is a nanosleep of the thread, not time.Sleep: when the Go
// runtime has nothing else to run it waits for timers in epoll, whose
// timeout is whole milliseconds, so a 100 µs time.Sleep often lasts 1 ms.
func (s *server) awaitReady(ctx context.Context, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("usserve exited: %v (log in %s)", s.err, filepath.Join(s.dir, "usserve.log"))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		syscall.Nanosleep(&syscall.Timespec{Nsec: 100_000}, nil)
	}
	return errors.New("no answer from /readyz within " + limit.String())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain takes more than 10 s.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.kill()
		return errors.New("usserve did not drain within 10 s")
	}
	if s.err != nil {
		return fmt.Errorf("usserve: %w (log in %s)", s.err, filepath.Join(s.dir, "usserve.log"))
	}
	return nil
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}
