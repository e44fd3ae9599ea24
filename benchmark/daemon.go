package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"intellog/internal/server"
)

// tenant is the one tenant every workload serves.
const tenant = "bench"

// daemon is a running intellogd child.
type daemon struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has been reaped
	err    error         // Wait's result, valid after done
	base   string        // HTTP base URL
	stream string        // ILS1 listen address
	log    string
}

// startDaemon boots intellogd over the model directory with a fresh
// state directory, on free loopback ports.
func startDaemon(e env, w workload, models, state, logPath string) (*daemon, error) {
	httpPort, err := freePort()
	if err != nil {
		return nil, err
	}
	streamPort, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{
		base:   fmt.Sprintf("http://127.0.0.1:%d", httpPort),
		stream: fmt.Sprintf("127.0.0.1:%d", streamPort),
		log:    logPath,
		done:   make(chan struct{}),
	}
	args := append([]string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-stream-addr", d.stream,
		"-models", models,
		"-state", state,
	}, w.daemonArgs()...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(filepath.Join(e.bin, "intellogd"), args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start intellogd: %w", err)
	}
	untrack := track(d.cmd.Process, d.done)
	go func() {
		d.err = d.cmd.Wait()
		logf.Close()
		close(d.done)
		untrack()
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitTenant polls until the tenant accepts an empty NDJSON batch: the
// daemon is listening and has loaded the tenant's model.
func (d *daemon) waitTenant(timeout time.Duration) error {
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("intellogd exited during boot (%v); log: %s", d.err, tail(d.log))
		default:
		}
		resp, err := hc.Post(d.base+"/v1/ingest?tenant="+tenant, "application/x-ndjson", nil)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				return nil
			}
			err = fmt.Errorf("status %s", resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tenant not ready after %s: %v", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit,
// killing it if the drain overruns.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.err
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("intellogd did not drain within 60s")
	}
	return d.err
}

func (d *daemon) client(hc *http.Client) *server.Client {
	return &server.Client{Base: d.base, Tenant: tenant, HTTP: hc}
}

// oneConn returns an HTTP client pinned to a single keep-alive
// connection.
func oneConn() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for user space.
const clockTick = 10 * time.Millisecond

// procCPU returns the process's user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(u+s) * clockTick, nil
}

// machineSteal returns the host's cumulative total and stolen CPU ticks
// (/proc/stat): the share of time a hypervisor ran someone else on this
// machine's CPUs, which slows every wall-clock figure of a run.
func machineSteal() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// procHWM returns the process's peak resident set (VmHWM) in bytes.
func procHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches /metrics and sums each series over its labels (one
// tenant per daemon, so a sum is that tenant's value).
func scrape(c *server.Client) (map[string]float64, error) {
	text, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

func itoa(n int) string { return strconv.Itoa(n) }
