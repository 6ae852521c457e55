package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparseadapt/internal/server/client"
)

// childStats is what one finished child process cost.
type childStats struct {
	wall, cpu time.Duration
	maxRSSMB  float64
}

// runChild runs one program to completion, writing its standard output to
// out, and returns its wall time, user+sys CPU and peak RSS.
func runChild(ctx context.Context, out io.Writer, stderrPath, prog string, args ...string) (childStats, error) {
	cmd := exec.CommandContext(ctx, prog, args...)
	cmd.Stdout = out
	errf, err := os.Create(stderrPath)
	if err != nil {
		return childStats{}, err
	}
	defer errf.Close()
	cmd.Stderr = errf
	start := time.Now()
	err = cmd.Run()
	st := childStats{wall: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		st.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return st, fmt.Errorf("%s %s: %w (stderr in %s)", filepath.Base(prog), strings.Join(args, " "), err, stderrPath)
	}
	return st, nil
}

// daemon is one running sparseadaptd.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	cl      *client.Client
	done    chan struct{}
	waitErr error
	boot    time.Duration // process start until /readyz answered 200
}

// daemonWorkers is the daemon's execution concurrency. The host the
// benchmark was written for has two CPUs; a fixed value keeps results
// comparable across hosts that differ only in core count.
const daemonWorkers = 2

// startDaemon boots a standalone sparseadaptd with a durable journal in an
// empty directory under dir and waits until it reports ready.
func startDaemon(ctx context.Context, e *env, dir string) (*daemon, error) {
	store := filepath.Join(dir, "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, "sparseadaptd"),
		"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(daemonWorkers), "-store-dir", store)
	cmd.Stderr = logf
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "sparseadaptd listening on "); ok {
				select {
				case addr <- rest:
				default:
				}
			}
		}
		d.waitErr = cmd.Wait()
		logf.Close()
		close(d.done)
	}()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("starting sparseadaptd: %w (log in %s)", err, logf.Name())
	}
	select {
	case d.base = <-addr:
	case <-d.done:
		return fail(fmt.Errorf("exited before listening: %v", d.waitErr))
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("no listening line after 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	d.cl = client.New(d.base)
	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			return fail(ctx.Err())
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("not ready after 30s"))
		}
		time.Sleep(time.Millisecond)
	}
	d.boot = time.Since(start)
	return d, nil
}

// stop drains the daemon with SIGTERM, escalating to SIGKILL after 20s,
// and waits for the process to exit.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // the process may already have exited
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // escalation; Wait below reaps it
		<-d.done
	}
}

// procCPU is the daemon's user+sys CPU so far, from /proc.
func (d *daemon) procCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times on Linux.
const clockTicks = 100

// peakRSSMB is the daemon's VmHWM so far, in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// promCounter sums every sample of the named metric families in a
// Prometheus exposition (label sets included).
func promCounter(text string, names ...string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		fam, _, _ := strings.Cut(key, "{")
		for _, n := range names {
			if fam == n {
				if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
					sum += v
				}
			}
		}
	}
	return sum
}
