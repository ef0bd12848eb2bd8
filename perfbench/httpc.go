package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"indaas/internal/auditd"
)

// conn is one HTTP/1.1 keep-alive connection to a daemon: every generator
// goroutine owns one, so the request connections the benchmark opens are
// exactly the goroutines it runs.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status code and the whole body.
func (c *conn) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func (c *conn) getJSON(path string, v any) error {
	code, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if code != 200 {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, code, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// jobRun is one audit submission carried to its report bytes.
type jobRun struct {
	st     auditd.JobStatus // terminal status
	submit auditd.JobStatus // status the POST answered
	code   int              // the POST's status code
	report []byte
	post   time.Duration // POST round trip
	get    time.Duration // report GET round trip
}

// audit submits body, long-polls the job to a terminal state and fetches
// the report. Any non-2xx answer, transport error or non-done job is an
// error.
func (c *conn) audit(body []byte) (jobRun, error) {
	var r jobRun
	t0 := time.Now()
	code, raw, err := c.do(http.MethodPost, "/v1/audits", body)
	r.post = time.Since(t0)
	r.code = code
	if err != nil {
		return r, err
	}
	if code != 200 && code != 202 {
		return r, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &r.submit); err != nil {
		return r, err
	}
	r.st = r.submit
	for !terminal(r.st.State) {
		if err := c.getJSON("/v1/audits/"+r.st.ID+"?wait=30s", &r.st); err != nil {
			return r, err
		}
	}
	if r.st.State != auditd.StateDone {
		return r, fmt.Errorf("job %s ended %s: %s", r.st.ID, r.st.State, r.st.Error)
	}
	t1 := time.Now()
	code, r.report, err = c.do(http.MethodGet, "/v1/audits/"+r.st.ID+"/report", nil)
	r.get = time.Since(t1)
	if err != nil {
		return r, err
	}
	if code != 200 {
		return r, fmt.Errorf("report: HTTP %d", code)
	}
	return r, nil
}

func terminal(state string) bool {
	return state == auditd.StateDone || state == auditd.StateFailed || state == auditd.StateCanceled
}

// ingest posts records and returns the acknowledgement.
func (c *conn) ingest(body []byte) (auditd.IngestResponse, error) {
	var resp auditd.IngestResponse
	code, raw, err := c.do(http.MethodPost, "/v1/depdb", body)
	if err != nil {
		return resp, err
	}
	if code != 200 {
		return resp, fmt.Errorf("ingest: HTTP %d: %s", code, bytes.TrimSpace(raw))
	}
	return resp, json.Unmarshal(raw, &resp)
}

// health is the subset of /healthz the benchmark reads.
type health struct {
	DBRecords     int    `json:"db_records"`
	DBFingerprint string `json:"db_fingerprint"`
}

func (c *conn) health() (health, error) {
	var h health
	err := c.getJSON("/healthz", &h)
	return h, err
}

// scrape reads every unlabelled sample of /metrics (histogram _sum and
// _count included).
func (c *conn) scrape() (map[string]float64, error) {
	code, raw, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("metrics: HTTP %d", code)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request bodies are plain data
	}
	return b
}
