package main

// The positrond subprocess: built from the tree, started with its shipped
// default flags on a loopback port, timed from exec to a 200 from
// /readyz, and read through /proc while it runs.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/artifact/store"
	"repro/internal/registry"
)

// buildPositrond compiles cmd/positrond from the tree at root into dir.
func buildPositrond(root, dir string) (string, error) {
	bin := filepath.Join(dir, "positrond")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/positrond")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building positrond in %s: %w", root, err)
	}
	return bin, nil
}

// daemon is one running positrond.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon execs positrond with args and waits until /readyz answers
// 200, polling every millisecond. It returns the time from exec to
// ready: positrond loads every -model before it listens, so ready means
// the workload's models are loaded.
func startDaemon(bin string, args ...string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting positrond: %w", err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	for time.Since(start) < 30*time.Second {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("positrond exited before ready: %v", d.err)
		default:
		}
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, 0, errors.New("positrond not ready after 30s")
}

// stop sends SIGTERM, escalates to SIGKILL after 10 s, and waits for the
// process to exit.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// pid returns the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// coldStarts starts positrond warmStarts+n times, each a new process,
// and returns the median exec-to-ready time of the last n with the last
// daemon left running. The untimed first starts absorb what only the
// first start of a fresh binary, or over an empty -store-dir, pays.
func coldStarts(n int, bin string, args ...string) (*daemon, float64, error) {
	var times []float64
	var d *daemon
	for i := 0; i < warmStarts+n; i++ {
		d.stop()
		runtime.GC() // no collection of the benchmark's heap competes with the start
		var dt time.Duration
		var err error
		d, dt, err = startDaemon(bin, args...)
		if err != nil {
			return nil, 0, err
		}
		if i >= warmStarts {
			times = append(times, dt.Seconds())
		}
	}
	return d, median(times), nil
}

// warmStarts is how many untimed starts precede the timed ones.
const warmStarts = 2

// metricsSnapshot is the part of GET /v1/metrics the benchmark reads.
type metricsSnapshot struct {
	Store  store.Stats          `json:"store"`
	Models []registry.ModelStat `json:"models"`
}

// metrics fetches /v1/metrics.
func (d *daemon) metrics(ctx context.Context) (*metricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	var m metricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	return &m, nil
}

// model returns one model's record from a metrics snapshot.
func (m *metricsSnapshot) model(name string) (registry.ModelStat, error) {
	for _, st := range m.Models {
		if st.Name == name {
			return st, nil
		}
	}
	return registry.ModelStat{}, fmt.Errorf("model %q missing from /v1/metrics", name)
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" for
// the benchmark) in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// cpuTime reads a process's user plus system CPU time.
func cpuTime(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// its closing parenthesis, at field 3.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc/" + pid + "/stat")
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, errors.New("short /proc/" + pid + "/stat")
	}
	var ticks int64
	for _, f := range fields[11:13] { // utime, stime: fields 14 and 15
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%s/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}
