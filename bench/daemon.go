package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// daemonSpec is one hdlsd instance to start.
type daemonSpec struct {
	coordinator bool     // -role coordinator over peers
	peers       []string // coordinator: worker base URLs
	workers     int      // -workers (0 = daemon default)
	cache       int      // -cache memory-tier entries (0 = daemon default)
	cacheDir    string   // -cache-dir (empty = no disk tier)
	addr        string   // listen host:port; empty picks a free loopback port
}

// daemon is one running hdlsd.
type daemon struct {
	url string
	// pid is the process behind url; 0 for an in-process daemon, which has
	// no process of its own to account CPU and memory to.
	pid int
	// exited is closed when the process ends; nil for in-process daemons.
	exited <-chan struct{}
	stop   func() error
}

// launcher starts a daemon: execLauncher in the benchmark, an in-process
// server behind httptest in the smoke test.
type launcher func(daemonSpec) (*daemon, error)

// execLauncher starts hdlsd processes from the binary at bin.
func execLauncher(bin string) launcher {
	return func(s daemonSpec) (*daemon, error) {
		addr := s.addr
		if addr == "" {
			port, err := freePort()
			if err != nil {
				return nil, err
			}
			addr = "127.0.0.1:" + strconv.Itoa(port)
		}
		args := []string{"-addr", addr}
		if s.coordinator {
			args = append(args, "-role", "coordinator", "-peers", strings.Join(s.peers, ","))
		}
		if s.workers > 0 {
			args = append(args, "-workers", strconv.Itoa(s.workers))
		}
		if s.cache > 0 {
			args = append(args, "-cache", strconv.Itoa(s.cache))
		}
		if s.cacheDir != "" {
			args = append(args, "-cache-dir", s.cacheDir)
		}
		cmd := exec.Command(bin, args...)
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start hdlsd: %w", err)
		}
		exited := make(chan struct{})
		go func() {
			cmd.Wait()
			close(exited)
		}()
		pid := cmd.Process.Pid
		return &daemon{
			url:    "http://" + addr,
			pid:    pid,
			exited: exited,
			stop: func() error {
				// SIGTERM drains (and flushes the disk tier); escalate if it stalls.
				cmd.Process.Signal(syscall.SIGTERM)
				select {
				case <-exited:
					return nil
				case <-time.After(15 * time.Second):
					cmd.Process.Kill()
					<-exited
					return fmt.Errorf("hdlsd pid %d did not drain; killed", pid)
				}
			},
		}, nil
	}
}

// freePort asks the kernel for an unused loopback TCP port. The daemon
// binds it a moment later; nothing else on the host races for it in
// practice.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// probeClient polls readiness. It keeps no idle connections, so probing
// leaves nothing behind on the daemon.
var probeClient = &http.Client{
	Timeout:   time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitReady polls /readyz until the daemon answers 200, its process dies,
// or ten seconds pass. The poll period is short because set-up time is
// measured through this wait.
func waitReady(d *daemon) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d.exited != nil {
			select {
			case <-d.exited:
				return fmt.Errorf("hdlsd at %s exited during start-up", d.url)
			default:
			}
		}
		resp, err := probeClient.Get(d.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("hdlsd at %s not ready after 10s", d.url)
}

// scrape reads a daemon's /metrics.
func scrape(d *daemon) (map[string]float64, error) {
	resp, err := probeClient.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", d.url, resp.StatusCode)
	}
	return serve.ParseMetrics(resp.Body)
}

// procCPU returns a process's user plus system CPU time from
// /proc/<pid>/stat, or 0 for an in-process daemon.
func procCPU(pid int) (time.Duration, error) {
	if pid == 0 {
		return 0, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := strings.LastIndexByte(string(raw), ')')
	if i < 0 {
		return 0, fmt.Errorf("pid %d: malformed stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("pid %d: short stat", pid)
	}
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("pid %d stat: %w", pid, err)
	}
	// Linux reports both in USER_HZ ticks, 100 per second.
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in bytes, or 0
// for an in-process daemon.
func procPeakRSS(pid int) (int64, error) {
	if pid == 0 {
		return 0, nil
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("pid %d VmHWM: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM in status", pid)
}

// deployment is the set of daemons one workload measures.
type deployment struct {
	// url receives the workload's sweeps (the coordinator in a fleet).
	url string
	// daemons lists every daemon; in a fleet the coordinator is last.
	daemons []*daemon
	// workers are the fleet's worker daemons (nil outside a fleet).
	workers []*daemon
}

// stop stops every daemon, coordinator first, and waits for each to exit.
func (d *deployment) stop() error {
	var errs []error
	for i := len(d.daemons) - 1; i >= 0; i-- {
		errs = append(errs, d.daemons[i].stop())
	}
	return errors.Join(errs...)
}

// snapshot is the deployment's accounting at one instant.
type snapshot struct {
	cpu     []time.Duration      // per daemon
	metrics []map[string]float64 // per daemon /metrics
}

func (d *deployment) snapshot() (snapshot, error) {
	var s snapshot
	for _, dm := range d.daemons {
		cpu, err := procCPU(dm.pid)
		if err != nil {
			return s, err
		}
		m, err := scrape(dm)
		if err != nil {
			return s, err
		}
		s.cpu = append(s.cpu, cpu)
		s.metrics = append(s.metrics, m)
	}
	return s, nil
}

// cpu is the CPU every daemon of the deployment has used so far.
func (d *deployment) cpu() (time.Duration, error) {
	var total time.Duration
	for _, dm := range d.daemons {
		c, err := procCPU(dm.pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// selfCPU is the user plus system CPU this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) fails only on a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSince is the CPU every daemon spent since the earlier snapshot.
func (s snapshot) cpuSince(before snapshot) time.Duration {
	var total time.Duration
	for i := range s.cpu {
		total += s.cpu[i] - before.cpu[i]
	}
	return total
}

// delta sums a /metrics counter's growth since the earlier snapshot over
// every daemon that exports it.
func (s snapshot) delta(before snapshot, name string) float64 {
	var total float64
	for i := range s.metrics {
		total += s.metrics[i][name] - before.metrics[i][name]
	}
	return total
}

// sum adds a gauge over every daemon that exports it.
func (s snapshot) sum(name string) float64 {
	var total float64
	for _, m := range s.metrics {
		total += m[name]
	}
	return total
}

// peakRSS sums the peak resident set of every daemon, in bytes.
func (d *deployment) peakRSS() (int64, error) {
	var total int64
	for _, dm := range d.daemons {
		b, err := procPeakRSS(dm.pid)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, nil
}
