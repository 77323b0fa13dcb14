package checks

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/serve"
)

// InProcessExecutor runs cases against an in-process serve.Server behind
// an httptest listener: the executor the Go tests use, so `go test ./...`
// runs cases without building cmd/hdlsd. Each case still gets a fresh
// server and a fresh store, so measurements match the subprocess
// executor's cold-start semantics; what it cannot reproduce is a daemon
// dying independently of the harness, which is exactly what the
// subprocess executor exists to gate.
type InProcessExecutor struct {
	// Workers is the per-case worker pool (0 = GOMAXPROCS).
	Workers int
}

// Start boots a fresh in-process daemon for the case.
func (e *InProcessExecutor) Start(c *Case) (*Instance, error) {
	dir, err := os.MkdirTemp("", "hdlscheck-*")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewWithError(serve.Options{Workers: e.Workers, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &Instance{
		BaseURL: ts.URL,
		Stop: func() error {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			err := srv.Drain(ctx)
			os.RemoveAll(dir)
			return err
		},
	}, nil
}

// DaemonExecutor runs each case against a freshly exec'd hdlsd subprocess
// — the dogfooding executor cmd/hdlscheck uses. A fresh daemon per case
// keeps cold passes honest (no store or counter pollution across cases)
// and makes the RSS goal meaningful: the scrape sees one case's working
// set, not the whole run's.
type DaemonExecutor struct {
	// Binary is the hdlsd executable path.
	Binary string
	// Workers is forwarded as -workers (0 = daemon default).
	Workers int
	// PidFile, when non-empty, receives the live daemon's PID before each
	// case — the hook scripts/checks_smoke.sh uses to SIGKILL the daemon
	// mid-case and assert the check fails rather than the harness.
	PidFile string
	// StartTimeout bounds the wait for /healthz (default 10s).
	StartTimeout time.Duration
	// Stderr receives the daemon's log output; nil discards it.
	Stderr *os.File
}

// Start execs a fresh hdlsd on a free port and waits for /healthz.
func (e *DaemonExecutor) Start(c *Case) (*Instance, error) {
	dir, err := os.MkdirTemp("", "hdlscheck-*")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr, "-cache-dir", dir}
	if e.Workers > 0 {
		args = append(args, "-workers", strconv.Itoa(e.Workers))
	}
	cmd := exec.Command(e.Binary, args...)
	if e.Stderr != nil {
		cmd.Stderr = e.Stderr
		cmd.Stdout = e.Stderr
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", e.Binary, err)
	}

	// Reap the process in the background so Down can distinguish "daemon
	// exited" from "network blip" without blocking.
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	down := func() error {
		select {
		case err := <-exited:
			exited <- err // keep the result for Stop
			if err == nil {
				return fmt.Errorf("hdlsd pid %d exited", cmd.Process.Pid)
			}
			return fmt.Errorf("hdlsd pid %d: %v", cmd.Process.Pid, err)
		default:
			return nil
		}
	}

	baseURL := "http://" + addr
	if err := waitHealthy(baseURL, down, e.startTimeout()); err != nil {
		cmd.Process.Kill()
		<-exited
		os.RemoveAll(dir)
		return nil, err
	}
	if e.PidFile != "" {
		pid := strconv.Itoa(cmd.Process.Pid) + "\n"
		if err := os.WriteFile(e.PidFile, []byte(pid), 0o644); err != nil {
			cmd.Process.Kill()
			<-exited
			os.RemoveAll(dir)
			return nil, fmt.Errorf("pidfile: %w", err)
		}
	}

	return &Instance{
		BaseURL: baseURL,
		Down:    down,
		Stop: func() error {
			defer os.RemoveAll(dir)
			if down() != nil {
				return nil // already dead; nothing to tear down
			}
			// SIGTERM starts the graceful drain; escalate if it stalls.
			cmd.Process.Signal(os.Interrupt)
			select {
			case <-exited:
				return nil
			case <-time.After(10 * time.Second):
				cmd.Process.Kill()
				<-exited
				return fmt.Errorf("hdlsd pid %d did not drain; killed", cmd.Process.Pid)
			}
		},
	}, nil
}

func (e *DaemonExecutor) startTimeout() time.Duration {
	if e.StartTimeout > 0 {
		return e.StartTimeout
	}
	return 10 * time.Second
}

// waitHealthy polls /healthz until the daemon serves, it dies, or the
// timeout expires.
func waitHealthy(baseURL string, down func() error, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if err := down(); err != nil {
			return fmt.Errorf("daemon died during startup: %w", err)
		}
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("daemon not healthy at %s after %s", baseURL, timeout)
}

// freePort asks the kernel for an unused TCP port. The tiny race between
// closing and the daemon's bind is acceptable for a test harness.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
