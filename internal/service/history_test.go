package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"dualgraph/internal/engine"
)

// runLocalJobs submits count quick local jobs and waits until the last one
// (and so, with the FIFO executor, every one) is terminal.
func runLocalJobs(t *testing.T, s *Server, count int) []string {
	t.Helper()
	ids := make([]string, count)
	for i := range ids {
		st, err := s.Submit(JobRequest{Name: fmt.Sprintf("quick-%d", i), Sweep: smallSweep(1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	waitState(t, s, ids[count-1], func(st State) bool { return st.Terminal() })
	return ids
}

// requireEvicted checks that every lookup path — the Go API and the HTTP
// status, results and DELETE routes — reports id as an unknown job.
func requireEvicted(t *testing.T, s *Server, ts *httptest.Server, id string) {
	t.Helper()
	if _, err := s.Get(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Get(%s) = %v, want ErrUnknownJob", id, err)
	}
	if _, err := s.Cancel(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel(%s) = %v, want ErrUnknownJob", id, err)
	}
	_, err := s.StreamResults(t.Context(), id, 0, func(CellLine) error { return nil })
	if !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("StreamResults(%s) = %v, want ErrUnknownJob", id, err)
	}
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + id},
		{http.MethodGet, "/v1/jobs/" + id + "/results"},
		{http.MethodDelete, "/v1/jobs/" + id},
	} {
		req, err := http.NewRequest(r.method, ts.URL+r.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
}

// The job history keeps the newest maxFinishedJobs terminal jobs, evicts
// the oldest finished first, and never evicts a live job — not even the
// oldest one on record.
func TestJobHistoryEvictsOldestTerminal(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.Config{Workers: 1}, QueueLimit: 256})

	live, err := s.Submit(JobRequest{Name: "live", Mode: ModeCoordinator, Sweep: smallSweep(1)})
	if err != nil {
		t.Fatal(err)
	}
	const extra = 6
	ids := runLocalJobs(t, s, maxFinishedJobs+extra)

	for _, id := range ids[:extra] {
		requireEvicted(t, s, ts, id)
	}
	for _, id := range ids[extra:] {
		if st, err := s.Get(id); err != nil || st.State != Done {
			t.Fatalf("retained job %s: %+v, %v", id, st, err)
		}
	}
	if st, err := s.Get(live.ID); err != nil || st.State != Running {
		t.Fatalf("live coordinator job: %+v, %v", st, err)
	}
	list := s.List()
	if len(list) != maxFinishedJobs+1 || list[0].ID != live.ID || list[1].ID != ids[extra] {
		t.Fatalf("List has %d jobs starting %s, %s; want %d starting %s, %s",
			len(list), list[0].ID, list[1].ID, maxFinishedJobs+1, live.ID, ids[extra])
	}

	// Once the live job finishes it is the newest terminal job: it stays and
	// the oldest finished local job goes.
	if _, err := s.Cancel(live.ID); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Get(live.ID); err != nil || st.State != Cancelled {
		t.Fatalf("cancelled coordinator job: %+v, %v", st, err)
	}
	requireEvicted(t, s, ts, ids[extra])
	if got := len(s.List()); got != maxFinishedJobs {
		t.Fatalf("List has %d jobs, want %d", got, maxFinishedJobs)
	}
}

// A result stream that found its job before the job was evicted finishes
// delivering every line and the terminal status.
func TestOpenStreamSurvivesEviction(t *testing.T) {
	s, _ := newTestServer(t, Config{Engine: engine.Config{Workers: 1}, QueueLimit: 256})

	st, err := s.Submit(JobRequest{Name: "streamed", Mode: ModeCoordinator, Sweep: smallSweep(1)})
	if err != nil {
		t.Fatal(err)
	}
	var first, rest []Claim
	for {
		c, ok, err := s.ClaimShard(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if c.Cell == 0 {
			first = append(first, c)
		} else {
			rest = append(rest, c)
		}
	}
	report := func(cs []Claim) {
		for _, c := range cs {
			if _, err := s.ReportShard(st.ID, Report{Cell: c.Cell, Shard: c.Shard, Summary: foldClaim(t, c)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	report(first) // cell 0's line is now streamable; the job is still running

	gotFirst, release := make(chan struct{}), make(chan struct{})
	type outcome struct {
		lines []CellLine
		st    JobStatus
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		var lines []CellLine
		final, err := s.StreamResults(context.Background(), st.ID, 0, func(l CellLine) error {
			if len(lines) == 0 {
				close(gotFirst)
				<-release
			}
			lines = append(lines, l)
			return nil
		})
		done <- outcome{lines, final, err}
	}()

	<-gotFirst
	report(rest)
	runLocalJobs(t, s, maxFinishedJobs)
	if _, err := s.Get(st.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("job %s not evicted: %v", st.ID, err)
	}
	close(release)

	out := <-done
	if out.err != nil {
		t.Fatalf("open stream cut off by eviction: %v", out.err)
	}
	if out.st.State != Done || len(out.lines) != len(smallSweep(1).Seeds) {
		t.Fatalf("stream ended %s with %d lines, want done with %d", out.st.State, len(out.lines), len(smallSweep(1).Seeds))
	}
	for i, l := range out.lines {
		if l.Cell != i {
			t.Fatalf("line %d is cell %d", i, l.Cell)
		}
	}
}
