package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spiderserved child process on a loopback port of its
// own choosing.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	debug  string        // net/http/pprof base URL, when started with one
	exited chan struct{} // closed once Wait returns
	err    error         // Wait's error, valid after exited closes
	logMu  sync.Mutex
	log    bytes.Buffer
}

// startDaemon launches spiderserved on dataDir and waits until it
// answers /readyz. With profile set it also serves net/http/pprof. The
// child is killed if this process dies first.
func startDaemon(bin, dataDir string, imageEdges int, profile bool) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-runners", "2", "-data-dir", dataDir}
	if imageEdges != 0 {
		args = append(args, "-image-edges", strconv.Itoa(imageEdges))
	}
	if profile {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spiderserved: %w", err)
	}
	addr := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if _, rest, ok := strings.Cut(line, "pprof on "); ok {
				d.logMu.Lock()
				d.debug = strings.TrimSuffix(strings.TrimSpace(rest), "/debug/pprof/")
				d.logMu.Unlock()
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
	}()
	go func() {
		<-logDone // Wait closes the pipe; drain it first
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("spiderserved exited at start: %v\n%s", d.err, d.logs())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("spiderserved did not report its address:\n%s", d.logs())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("spiderserved not ready: %v\n%s", err, d.logs())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) logs() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop sends SIGTERM and waits for the clean drain; a daemon that has
// not exited after 30 s is killed and reported as an error.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("spiderserved exited early: %v\n%s", d.err, d.logs())
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("spiderserved did not drain within 30s:\n%s", d.logs())
	}
	if d.err != nil {
		return fmt.Errorf("spiderserved: %v\n%s", d.err, d.logs())
	}
	return nil
}

// cpuProfile fetches a CPU profile of the daemon over secs seconds.
func (d *daemon) cpuProfile(secs int) ([]byte, error) {
	d.logMu.Lock()
	base := d.debug
	d.logMu.Unlock()
	if base == "" {
		return nil, fmt.Errorf("spiderserved runs without -debug-addr")
	}
	resp, err := http.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("profile: status %d: %.200s", resp.StatusCode, b)
	}
	return b, err
}

// dumpStacks makes the daemon print every goroutine's stack (SIGQUIT)
// and saves its log to path: the evidence when a request hangs.
func (d *daemon) dumpStacks(path string) error {
	d.cmd.Process.Signal(syscall.SIGQUIT)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
	return os.WriteFile(path, []byte(d.logs()), 0o644)
}

// kill ends the process unconditionally and waits for it; safe to call
// after stop.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// client is the benchmark's HTTP client: every request is timed, and
// traced when the caller passes a tracer.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Timeout: 30 * time.Second}}
}

type reply struct {
	status int
	body   []byte
	dur    time.Duration
	err    error
}

// ok reports a transport success with one of the wanted statuses.
func (r reply) ok(want ...int) error {
	if r.err != nil {
		return r.err
	}
	for _, w := range want {
		if r.status == w {
			return nil
		}
	}
	return fmt.Errorf("status %d: %.200s", r.status, r.body)
}

// do sends one request and reads the whole reply, under a span named
// for the request class.
func (c *client) do(tr *tracer, parent int, class, method, path string, body []byte) reply {
	sp := tr.begin("http."+class, parent)
	defer tr.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	t0 := time.Now()
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err, dur: time.Since(t0)}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: b, dur: time.Since(t0), err: err}
}

// jobSnap is the job record GET /jobs/{id} and POST /jobs return.
type jobSnap struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"`
	Cached   bool      `json:"cached"`
	Error    string    `json:"error"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

func (s jobSnap) terminal() bool {
	return s.Status == "done" || s.Status == "failed" || s.Status == "canceled"
}

// jobOptions is the options object of a POST /jobs body.
type jobOptions struct {
	MinSupport       int   `json:"min_support,omitempty"`
	K                int   `json:"k,omitempty"`
	Dmax             int   `json:"dmax,omitempty"`
	Seed             int64 `json:"seed,omitempty"`
	Workers          int   `json:"workers,omitempty"`
	MaxPatterns      int   `json:"max_patterns,omitempty"`
	MaxSpiders       int   `json:"max_spiders,omitempty"`
	MaxLeavesPerStar int   `json:"max_leaves_per_star,omitempty"`
}

func jobBody(graphID string, o jobOptions) []byte {
	b, _ := json.Marshal(map[string]any{"graph": graphID, "miner": "spidermine", "options": o})
	return b
}

// scrape reads /metrics into name → value (labelled series keep their
// label block in the name).
func scrape(c *client, tr *tracer) (map[string]float64, error) {
	r := c.do(tr, 0, "metrics", http.MethodGet, "/metrics", nil)
	if err := r.ok(http.StatusOK); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(r.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// metricDelta is after − before for one series, summing every labelled
// series of a family when name ends in "{".
func metricDelta(before, after map[string]float64, name string) float64 {
	sum := func(m map[string]float64) float64 {
		if !strings.HasSuffix(name, "{") {
			return m[name]
		}
		t := 0.0
		for k, v := range m {
			if strings.HasPrefix(k, name) {
				t += v
			}
		}
		return t
	}
	return sum(after) - sum(before)
}
