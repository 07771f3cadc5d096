package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"dualgraph/internal/engine"
	"dualgraph/internal/service"
	"dualgraph/internal/spec"
)

// serviceTiming is what the client sees of the service layer on one job.
type serviceTiming struct {
	submitNs int64 // POST /v1/jobs round trip
	tailNs   int64 // last cell line → done line
}

// serviceClient is one dgsimd server on an httptest listener and the one
// client connection that drives it in a closed loop: the next job is
// submitted only after the previous job's done line.
type serviceClient struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(ec engine.Config) *serviceClient {
	srv := service.New(service.Config{Engine: ec})
	ts := httptest.NewServer(srv.Handler())
	return &serviceClient{srv: srv, ts: ts, client: ts.Client()}
}

// close stops the listener and drains the server, waiting for its goroutines.
func (c *serviceClient) close() {
	c.ts.Close()
	c.srv.Close()
}

// run submits sweep i as a job and reads its result stream to the done line.
func (c *serviceClient) run(ctx context.Context, sw spec.Sweep, i int) (*sweepResult, jobTiming, serviceTiming) {
	res := &sweepResult{index: i, sweep: sw}
	var jt jobTiming
	var st serviceTiming
	jt.submit = now()
	res.err = c.job(ctx, sw, i, res, &jt, &st)
	jt.done = now()
	return res, jt, st
}

func (c *serviceClient) job(ctx context.Context, sw spec.Sweep, i int, res *sweepResult, jt *jobTiming, st *serviceTiming) error {
	body, err := json.Marshal(service.JobRequest{Name: fmt.Sprintf("sweep-%d", i), Sweep: sw})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var status service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&status)
	drain(resp.Body)
	st.submitNs = now() - jt.submit
	if err != nil {
		return fmt.Errorf("submit: decode status: %w", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("submit: status %d", resp.StatusCode)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.ts.URL+"/v1/jobs/"+status.ID+"/results", nil)
	if err != nil {
		return err
	}
	resp, err = c.client.Do(req)
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("results: status %d", resp.StatusCode)
	}
	var lastCell int64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			service.CellLine
			Done           bool          `json:"done"`
			State          service.State `json:"state"`
			Cells          int           `json:"cells"`
			CellsCompleted int           `json:"cells_completed"`
			Error          string        `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("results: %w", err)
		}
		t := now()
		if !line.Done {
			if jt.firstCell == 0 {
				jt.firstCell = t
			}
			lastCell = t
			res.lines = append(res.lines, line.Label+": "+line.Summary)
			continue
		}
		st.tailNs = t - lastCell
		if line.State != service.Done || line.CellsCompleted != line.Cells {
			return fmt.Errorf("job %s ended %s with %d/%d cells: %s", status.ID, line.State, line.CellsCompleted, line.Cells, line.Error)
		}
		return nil
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	return fmt.Errorf("job %s: stream ended without a done line", status.ID)
}

// drain reads a response body to its end and closes it, so the connection
// is reused for the next request.
func drain(r io.ReadCloser) {
	_, _ = io.Copy(io.Discard, r)
	_ = r.Close()
}
