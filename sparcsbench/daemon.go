package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// daemon is one running sparcsd process serving on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan error // receives cmd.Wait's result once
}

// errExited reports a daemon that died before it became healthy, most
// likely because another process took its port first.
var errExited = errors.New("sparcsd exited during start-up")

// startDaemon launches sparcsd and returns once /healthz answers, along
// with the time from spawn to the first healthy answer. A daemon that dies
// during start-up is retried on a fresh port.
func startDaemon(ctx context.Context, bin string, workers int) (d *daemon, took time.Duration, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if d, took, err = spawn(ctx, bin, workers); !errors.Is(err, errExited) {
			break
		}
	}
	return d, took, err
}

func spawn(ctx context.Context, bin string, workers int) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers), "-log-level", "error")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start sparcsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case err := <-d.exited:
			d.exited <- err
			return nil, 0, fmt.Errorf("%w: %v", errExited, err)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("sparcsd not healthy after 30s")
		}
	}
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 15s, and waits for the process either way.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick a port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}
