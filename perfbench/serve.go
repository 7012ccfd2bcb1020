package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// daemon is one uuserve child process on loopback.
type daemon struct {
	bin  string
	args []string
	port int
	cmd  *exec.Cmd
	log  *os.File
	base string
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

// startDaemon launches uuserve with args (plus -addr) and waits until
// /healthz answers. The child's log goes to logPath.
func startDaemon(bin, logPath string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{bin: bin, args: args, port: port, base: fmt.Sprintf("http://127.0.0.1:%d", port)}
	if err := d.start(logPath); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *daemon) start(logPath string) error {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", d.port)}, d.args...)
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return err
	}
	d.cmd, d.log = cmd, f
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill()
	return fmt.Errorf("uuserve did not become healthy within 30s (log: %s)", logPath)
}

// peakRSSMB reads the child's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// kill sends SIGKILL and reaps the child.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
	d.cmd = nil
}

// restart starts the same binary with the same flags on the same port.
func (d *daemon) restart() error { return d.start(d.log.Name()) }

// client sends requests over at most maxConns keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, maxConns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        maxConns,
		MaxIdleConnsPerHost: maxConns,
		MaxConnsPerHost:     maxConns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply.
func (c *client) do(method, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *client) query(sql string, hdr map[string]string) (int, []byte, error) {
	body, _ := json.Marshal(map[string]string{"sql": sql})
	return c.do(http.MethodPost, "/v1/query", body, hdr)
}

func (c *client) createTable(w *workload) error {
	body, _ := json.Marshal(map[string]any{"name": tableName, "schema": w.schema})
	status, out, err := c.do(http.MethodPost, "/v1/tables", body, nil)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("create table: HTTP %d: %s", status, out)
	}
	return nil
}

// ingest posts one NDJSON batch and checks the acknowledged row count.
func (c *client) ingest(batch []byte, rows int, hdr map[string]string) error {
	status, out, err := c.do(http.MethodPost, "/v1/ingest?table="+tableName, batch, hdr)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %s", status, out)
	}
	var resp struct {
		Rows int `json:"rows"`
	}
	if err := json.Unmarshal(out, &resp); err != nil || resp.Rows != rows {
		return fmt.Errorf("ingest: acknowledged %d rows of %d (%v)", resp.Rows, rows, err)
	}
	return nil
}

// serverStats is the part of /v1/stats the benchmark reads.
type serverStats struct {
	Cache        engine.CacheStats
	Records      int
	Observations int
	AppliedRows  uint64
	Batches      uint64
}

func (c *client) stats() (serverStats, error) {
	status, out, err := c.do(http.MethodGet, "/v1/stats", nil, nil)
	if err != nil {
		return serverStats{}, err
	}
	if status != http.StatusOK {
		return serverStats{}, fmt.Errorf("stats: HTTP %d", status)
	}
	var doc struct {
		Tenants map[string]struct {
			Cache  engine.CacheStats `json:"cache"`
			Tables map[string]struct {
				Records      int    `json:"records"`
				Observations int    `json:"observations"`
				AppliedRows  uint64 `json:"applied_rows"`
				Batches      uint64 `json:"batches"`
			} `json:"tables"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		return serverStats{}, err
	}
	t := doc.Tenants["default"]
	tbl := t.Tables[tableName]
	return serverStats{
		Cache:   t.Cache,
		Records: tbl.Records, Observations: tbl.Observations,
		AppliedRows: tbl.AppliedRows, Batches: tbl.Batches,
	}, nil
}

// dirUsage sums the regular files under dir by suffix.
func dirUsage(dir string) (bySuffix map[string]int64, files int) {
	bySuffix = map[string]int64{}
	filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		files++
		bySuffix[filepath.Ext(path)] += info.Size()
		return nil
	})
	return bySuffix, files
}
