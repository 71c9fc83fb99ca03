package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"rock/internal/daemon"
	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/registry"
	"rock/internal/store"
	"rock/internal/wire"
)

// smokeSnapshot is a one-cluster model whose cluster id marks the
// generation: the probe {1,2,3} is assigned to it.
func smokeSnapshot(cluster int) *model.Snapshot {
	return &model.Snapshot{
		Theta:   0.5,
		FTheta:  (1 - 0.5) / (1 + 0.5),
		SimName: "jaccard",
		Sets:    []model.Set{{Cluster: cluster, Norm: math.Pow(4, 1.0/3), Points: []int{0, 1, 2}}},
		Txns: []dataset.Transaction{
			dataset.NewTransaction(1, 2, 3),
			dataset.NewTransaction(1, 2, 4),
			dataset.NewTransaction(2, 3, 4),
		},
	}
}

// rockd is one running rockd process.
type rockd struct {
	cmd  *exec.Cmd
	url  string
	log  string
	done chan error
}

// startRockd runs the built binary with args on a free loopback port. The
// process is killed at cleanup if the test did not drain it.
func startRockd(t *testing.T, bin string, args ...string) *rockd {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	logPath := filepath.Join(t.TempDir(), "rockd.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &rockd{cmd: cmd, url: "http://" + addr, log: logPath, done: make(chan error, 1)}
	go func() {
		d.done <- cmd.Wait()
		logFile.Close()
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-d.done
	})
	return d
}

func (d *rockd) logTail() string {
	b, _ := os.ReadFile(d.log)
	return string(b)
}

// readyz returns /readyz's status and payload, or status 0 while the
// listener is not up yet.
func (d *rockd) readyz() (int, daemon.Readiness) {
	var rd daemon.Readiness
	resp, err := http.Get(d.url + "/readyz")
	if err != nil {
		return 0, rd
	}
	defer resp.Body.Close()
	json.NewDecoder(resp.Body).Decode(&rd)
	return resp.StatusCode, rd
}

// waitListening polls until /readyz answers at all and returns its status.
func (d *rockd) waitListening(t *testing.T) int {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if status, _ := d.readyz(); status != 0 {
			return status
		}
		if time.Now().After(deadline) {
			t.Fatalf("rockd never listened:\n%s", d.logTail())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitReady polls until /readyz is 200 with the default model at seq.
func (d *rockd) waitReady(t *testing.T, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, rd := d.readyz()
		if status == http.StatusOK {
			if rd.Seq != seq || rd.Models["default"] != seq {
				t.Fatalf("readyz %+v, want seq %d for the default model", rd, seq)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rockd never became ready (last status %d):\n%s", status, d.logTail())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assign posts the probe {1,2,3} in the binary codec and checks the cluster
// and the X-Rock-Model-Seq header.
func (d *rockd) assign(t *testing.T, path string, cluster int, seq string) {
	t.Helper()
	body := wire.AppendRequest(nil, []dataset.Transaction{dataset.NewTransaction(1, 2, 3)})
	resp, err := http.Post(d.url+path, wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d (%s)", path, resp.StatusCode, payload)
	}
	out, err := wire.DecodeResponse(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Cluster != cluster {
		t.Fatalf("POST %s: assignments %+v, want cluster %d", path, out, cluster)
	}
	if got := resp.Header.Get(daemon.ModelSeqHeader); got != seq {
		t.Fatalf("POST %s: seq header %q, want %q", path, got, seq)
	}
}

// reload posts body to path and checks the reported seq.
func (d *rockd) reload(t *testing.T, path, body string, seq uint64) {
	t.Helper()
	resp, err := http.Post(d.url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr daemon.ReloadResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rr.OK || rr.Seq != seq {
		t.Fatalf("POST %s %s: %d %+v, want ok at seq %d", path, body, resp.StatusCode, rr, seq)
	}
}

// drain sends SIGTERM and expects a clean exit after the drain.
func (d *rockd) drain(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		d.done <- err // let cleanup's wait return
		if err != nil {
			t.Fatalf("rockd exited with %v after SIGTERM:\n%s", err, d.logTail())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("rockd did not exit after SIGTERM:\n%s", d.logTail())
	}
	if log := d.logTail(); !strings.Contains(log, "draining") || !strings.Contains(log, "bye") {
		t.Fatalf("no drain in the log:\n%s", log)
	}
}

// TestRockdBinarySmoke builds rockd and drives each model source end to
// end: readiness, a binary assign on the legacy route, a reload, and a
// SIGTERM drain.
func TestRockdBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the rockd binary")
	}
	if runtime.GOOS == "windows" {
		t.Skip("drains on SIGTERM")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rockd")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building rockd: %v\n%s", err, out)
	}

	t.Run("model", func(t *testing.T) {
		fileA, fileB := filepath.Join(tmp, "a.rockm"), filepath.Join(tmp, "b.rockm")
		if err := model.Save(fileA, smokeSnapshot(7)); err != nil {
			t.Fatal(err)
		}
		if err := model.Save(fileB, smokeSnapshot(8)); err != nil {
			t.Fatal(err)
		}
		d := startRockd(t, bin, "-model", fileA)
		d.waitReady(t, 0)
		d.assign(t, "/v1/assign", 7, "0")
		d.reload(t, "/v1/reload", fmt.Sprintf(`{"path": %q}`, fileB), 0)
		d.assign(t, "/v1/assign", 8, "0")
		d.drain(t)
	})

	t.Run("dir", func(t *testing.T) {
		dirPath := filepath.Join(tmp, "models")
		d := startRockd(t, bin, "-dir", dirPath)
		if status := d.waitListening(t); status != http.StatusServiceUnavailable {
			t.Fatalf("readyz of an empty -dir: %d, want 503", status)
		}
		dir, err := model.OpenDir(store.OS, dirPath, "model", 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Save(smokeSnapshot(7)); err != nil {
			t.Fatal(err)
		}
		d.reload(t, "/v1/reload", "{}", 1)
		d.waitReady(t, 1)
		d.assign(t, "/v1/assign", 7, "1")
		d.drain(t)

		// Restarted over the populated directory, the startup load serves
		// its newest generation.
		if _, err := dir.Save(smokeSnapshot(8)); err != nil {
			t.Fatal(err)
		}
		d = startRockd(t, bin, "-dir", dirPath)
		d.waitReady(t, 2)
		d.assign(t, "/v1/assign", 8, "2")
		d.drain(t)
	})

	t.Run("registry", func(t *testing.T) {
		root := filepath.Join(tmp, "registry")
		reg, err := registry.Open(registry.Config{Root: root})
		if err != nil {
			t.Fatal(err)
		}
		for name, cluster := range map[string]int{"default": 7, "other": 9} {
			dir, err := reg.Dir(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dir.Save(smokeSnapshot(cluster)); err != nil {
				t.Fatal(err)
			}
		}
		d := startRockd(t, bin, "-registry", root)
		d.waitReady(t, 1)
		d.assign(t, "/v1/assign", 7, "1")
		d.assign(t, "/v1/assign/other", 9, "1")
		d.reload(t, "/v1/reload", "{}", 1)
		d.drain(t)
	})
}
