package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// live tracks the running daemons, so an interrupted benchmark can stop
// them before it exits.
var live = struct {
	sync.Mutex
	m map[*daemon]bool
}{m: map[*daemon]bool{}}

// stopAll stops every running daemon.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.m))
	for d := range live.m {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// daemon is one running cupidd process, launched with its default flags
// plus a loopback listen address and a data directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:<port>
	args    []string
	log     *os.File
	started time.Time
	exited  chan struct{}
	waitErr error
}

// launch starts cupidd on dataDir and waits until /readyz answers 200.
// The returned duration runs from process start to that first 200.
func launch(bin, dataDir, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{
		base:   "http://" + addr,
		args:   []string{"-addr", addr, "-data", dataDir},
		log:    lf,
		exited: make(chan struct{}),
	}
	d.cmd = exec.Command(bin, d.args...)
	d.cmd.Stdout, d.cmd.Stderr = lf, lf
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("starting cupidd: %w", err)
	}
	live.Lock()
	live.m[d] = true
	live.Unlock()
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	ready, err := d.waitReady(2 * time.Minute)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, ready, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200 and returns the time
// since launch.
func (d *daemon) waitReady(limit time.Duration) (time.Duration, error) {
	hc := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := d.started.Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return 0, fmt.Errorf("cupidd exited before becoming ready: %v (log: %s)", d.waitErr, d.log.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(d.started), nil
			}
		}
		// Poll at 1/50 of the time waited so far: a start-up of a few
		// milliseconds is resolved to a few percent, a long recovery is
		// not slowed by the polling.
		time.Sleep(min(max(time.Since(d.started)/50, 100*time.Microsecond), 5*time.Millisecond))
	}
	return 0, fmt.Errorf("cupidd not ready after %v", limit)
}

// peakRSSMiB reads the process's VmHWM (peak resident set) from /proc.
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// stop sends SIGTERM (cupidd drains and flushes its journal) and waits
// for the process to exit, killing it after 30 s.
func (d *daemon) stop() error {
	live.Lock()
	delete(live.m, d)
	live.Unlock()
	defer d.log.Close()
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is handled below
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("cupidd did not stop within 30 s of SIGTERM; killed")
	}
	if d.waitErr != nil {
		return fmt.Errorf("cupidd exit: %w", d.waitErr)
	}
	return nil
}

// conns is an HTTP client over at most n keep-alive connections.
type conns struct {
	base string
	hc   *http.Client
	tr   *http.Transport
}

func newConns(base string, n int) *conns {
	tr := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conns{base: base, hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *conns) close() { c.tr.CloseIdleConnections() }

// reply is one HTTP exchange as the load generator saw it.
type reply struct {
	status int
	body   []byte
	err    error
}

func (c *conns) do(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, body: b, err: err}
}

// ok reports a transport-clean 2xx reply.
func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func (r reply) describe() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d: %s", r.status, bytes.TrimSpace(r.body))
}
