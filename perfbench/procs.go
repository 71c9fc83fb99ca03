package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// buildBinaries compiles rockd and rockgate from the checkout under test
// into dir and returns their paths.
func buildBinaries(ctx context.Context, root, dir string) (rockd, rockgate string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/rockd", "./cmd/rockgate")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", "", fmt.Errorf("building rockd and rockgate: %v\n%s", err, out)
	}
	return filepath.Join(dir, "rockd"), filepath.Join(dir, "rockgate"), nil
}

// child is a started server process. stop ends it and waits for it.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// startChild starts bin with args, logging to logPath. The child is killed
// if this process dies without stopping it.
func startChild(name, bin string, args []string, logPath string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop asks the child to shut down, kills it after a grace period, and
// waits until it has exited.
func (c *child) stop() {
	if !c.exited() {
		c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(3 * time.Second):
			c.cmd.Process.Kill()
			<-c.done
		}
	}
	c.log.Close()
}

// tail returns the end of the child's log, for error messages.
func (c *child) tail() string {
	b, err := os.ReadFile(c.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
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

// waitReady polls url until it answers 200 and ok accepts the body, the
// child exits, or the deadline passes.
func waitReady(ctx context.Context, c *child, url string, ok func([]byte) bool) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK && (ok == nil || ok(body)) {
				return nil
			}
		}
		if c.exited() {
			return fmt.Errorf("%s exited before becoming ready:\n%s", c.name, c.tail())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready at %s after 20s", c.name, url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
