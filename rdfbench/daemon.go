package main

import (
	"bufio"
	"context"
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
)

// Daemon is one rdfcubed child process.
type Daemon struct {
	Addr      string
	PprofAddr string   // private loopback listener, used only to force a GC
	Flags     []string // the caller's flags
	Args      []string // every flag the daemon was started with
	cmd       *exec.Cmd
	log       *os.File
	done      chan struct{}
	err       error // cmd.Wait's result, valid once done is closed
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// StartDaemon execs bin with args plus fresh loopback -addr and
// -pprof-addr listeners, logging to logPath, and returns once /readyz answers 200 — or an error if the
// process exits or readiness takes longer than limit.
func StartDaemon(ctx context.Context, bin, logPath string, args []string, limit time.Duration) (*Daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	pprofAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		Addr:      addr,
		PprofAddr: pprofAddr,
		Flags:     args,
		Args:      append([]string{"-addr", addr, "-pprof-addr", pprofAddr}, args...),
		log:       logf,
		done:      make(chan struct{}),
	}
	d.cmd = exec.Command(bin, d.Args...)
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	if err := d.waitReady(ctx, limit); err != nil {
		d.Kill()
		return nil, fmt.Errorf("%w (daemon log: %s)", err, tail(logPath, 5))
	}
	return d, nil
}

// waitReady polls /readyz every millisecond.
func (d *Daemon) waitReady(ctx context.Context, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-d.done:
			return fmt.Errorf("daemon exited before ready: %v", d.err)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := hc.Get("http://" + d.Addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v", limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// Kill sends SIGKILL and waits for the process to be reaped.
func (d *Daemon) Kill() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGKILL) // already-exited races are fine: Wait reaps either way
		<-d.done
	}
	d.log.Close()
}

// cpuTicks returns the daemon's user+system CPU time in clock ticks.
func (d *Daemon) cpuTicks() (int64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	s, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return u + s, nil
}

// WaitIdle returns once the daemon has used at most one clock tick of
// CPU over a 100 ms window — its post-set-up garbage collection and
// background work have finished — or after limit.
func (d *Daemon) WaitIdle(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	prev, err := d.cpuTicks()
	if err != nil {
		return err
	}
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
		cur, err := d.cpuTicks()
		if err != nil {
			return err
		}
		if cur-prev <= 1 {
			return nil
		}
		prev = cur
	}
	return nil
}

// Settle brings the daemon and this client to a reproducible state
// before a measured phase: a forced garbage collection in both (the
// daemon's through net/http/pprof's heap profile with gc=1, which runs
// runtime.GC first), then WaitIdle. Without it, whether set-up garbage
// — the daemon's, or the generated dataset in this process — is
// collected during the measurement depends on where each heap happens
// to sit relative to its next GC trigger.
func (d *Daemon) Settle(ctx context.Context) error {
	runtime.GC()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.PprofAddr+"/debug/pprof/heap?gc=1", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("forcing a GC: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("forcing a GC: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("forcing a GC: HTTP %d", resp.StatusCode)
	}
	return d.WaitIdle(ctx, 10*time.Second)
}

// Status reads fields (kB values) from the daemon's /proc status.
func (d *Daemon) Status(fields ...string) (map[string]float64, error) {
	return procStatus(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"), fields...)
}

// procStatus parses "Name:   1234 kB" lines of a /proc/<pid>/status file.
func procStatus(path string, fields ...string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		for _, want := range fields {
			if k == want {
				n, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					out[k] = n
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, want := range fields {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("%s: no %s field", path, want)
		}
	}
	return out, nil
}

// tail returns the last n lines of a file, joined by " | ".
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
