// Command dgsimd is the long-running sweep service: it accepts declarative
// spec.Sweep jobs over a versioned HTTP API, executes them one at a time on
// one shared deterministic worker pool, and streams per-cell summary lines
// back as cells complete — byte-identical to what `dgsim -spec` prints for
// the same sweep file.
//
//	dgsimd -addr :8080 -workers 8
//
// With -worker the same binary runs in worker mode instead: it attaches to
// a coordinator dgsimd's job (one submitted with "mode": "coordinator") and
// repeatedly claims (cell, shard) work units over the shard claim/report
// API, folds each unit's trials with the engine's exact per-shard loop, and
// reports the serialized accumulator back. Workers are fungible and
// crash-safe: a killed worker's leased unit returns to the pool when its
// lease expires, and the coordinator's merged results stay byte-identical
// to a single-process run regardless of worker count or deaths.
//
//	# coordinator job: units run on remote workers, not the local pool
//	curl -s localhost:8080/v1/jobs -d '{"sweep":{"base":{"n":17},"seeds":[1,2,3],"trials":1000},"mode":"coordinator"}'
//	# any number of workers, anywhere:
//	dgsimd -worker -coordinator http://localhost:8080 -job job-000001
//
//	# submit a job (absent versions read as v1)
//	curl -s localhost:8080/v1/jobs -d '{"sweep":{"base":{"n":17},"seeds":[1,2,3],"trials":1000}}'
//	# follow its results as they complete (JSON lines; add
//	# -H 'Accept: text/event-stream' for SSE)
//	curl -sN localhost:8080/v1/jobs/job-000001/results
//	# status / listing / cancel
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -s localhost:8080/v1/jobs
//	curl -s -X DELETE localhost:8080/v1/jobs/job-000001
//
// SIGTERM (or SIGINT) drains gracefully: admission stops, queued jobs are
// cancelled, the running job stops at the next shard boundary with every
// completed cell already streamed, and the process exits 0 once the pool
// and all open result streams have wound down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/service"
)

// Connection timeouts of the service listener. A client must finish its
// request headers within readHeaderTimeout, and an idle keep-alive
// connection is closed after idleTimeout, so a stalled or abandoned client
// cannot hold a connection and its goroutine forever. There is deliberately
// no write timeout: ndjson and SSE result streams last as long as their job.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the service handler in a server with the connection
// timeouts set.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.SetFlags(0)
		log.Fatalf("dgsimd: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dgsimd", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers    = fs.Int("workers", 0, "shared trial pool size (0 = one per CPU); never changes results, only throughput")
		queue      = fs.Int("queue", 64, "max queued jobs before submissions get 429")
		drainGrace = fs.Duration("drain-grace", time.Minute, "max time to wait for the running shard and open streams on shutdown")
		pprofOn    = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the service listener (off by default; enable only on trusted networks)")

		workerMode  = fs.Bool("worker", false, "run as a remote worker for a coordinator job instead of serving")
		coordinator = fs.String("coordinator", "", "worker mode: base URL of the coordinator dgsimd (e.g. http://host:8080)")
		jobID       = fs.String("job", "", "worker mode: id of the coordinator job to work on")
		poll        = fs.Duration("poll", 250*time.Millisecond, "worker mode: back-off between claim attempts when all units are leased")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*workerMode && (*coordinator != "" || *jobID != "") {
		return errors.New("-coordinator and -job only apply with -worker")
	}

	logger := log.New(os.Stderr, "dgsimd: ", log.LstdFlags)
	if *workerMode {
		if *coordinator == "" || *jobID == "" {
			return errors.New("-worker requires -coordinator and -job")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runWorker(ctx, logger, *coordinator, *jobID, *poll)
	}
	svc := service.New(service.Config{
		Engine:     engine.Config{Workers: *workers},
		QueueLimit: *queue,
	})
	handler := svc.Handler()
	if *pprofOn {
		// The service API keeps its own mux; the debug mux wraps it so the
		// pprof routes exist only when asked for and never shadow /v1/.
		debug := http.NewServeMux()
		debug.Handle("/", handler)
		debug.HandleFunc("/debug/pprof/", pprof.Index)
		debug.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debug.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debug.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debug.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = debug
	}
	hs := newHTTPServer(handler)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the startup handshake: scripts (and the
	// serve-smoke test) parse it to find the port when -addr ends in :0.
	logger.Printf("listening on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.Printf("signal received; draining (grace %v)", *drainGrace)
	graceCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := svc.Drain(graceCtx); err != nil {
		logger.Printf("drain incomplete: %v", err)
	}
	// Shutdown after Drain: jobs are terminal by now, so open result
	// streams have flushed their done lines and Shutdown returns once the
	// last response closes.
	if err := hs.Shutdown(graceCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	logger.Printf("drained, exiting")
	return nil
}
