// Command nucaserve exposes the simulator as an HTTP/JSON service: POST
// a job spec, poll or stream its progress, fetch the cached artifacts.
// Results are content-addressed by the SHA-256 of the canonical job
// spec, so identical submissions are answered from the on-disk cache
// byte-for-byte — and a SIGTERM mid-run checkpoints unfinished jobs so
// the next process resumes them instead of recomputing.
//
//	nucaserve -state /var/lib/nucaserve -addr :8080
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events
// (NDJSON; live epochs while the job runs, the final status once it is
// done), GET /v1/jobs/{id}/result[?artifact=epochs],
// GET /v1/jobs/{id}/spans (Perfetto-loadable wall-clock span trace; a
// done job's is its committed spans.json),
// DELETE /v1/jobs/{id}, POST /v1/sweeps (parameter sweeps: the grid
// expands server-side, points dedupe against the result cache, and
// points sharing a warmup hash fork one warmup checkpoint),
// GET /v1/sweeps[/{id}[/events|/result]], DELETE /v1/sweeps/{id},
// /healthz, /readyz, /metrics.
//
// -debug-addr starts a second listener serving /debug/pprof/* (profiles,
// goroutine dumps, execution traces). It is a separate server on its own
// address so the profiling surface is never exposed on the API port —
// bind it to localhost.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nucasim/internal/atomicio"
	"nucasim/internal/serve"
	"nucasim/internal/tools/cliflags"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the actual listening address to this file (for scripts using -addr :0)")
	workers := flag.Int("workers", 0, "concurrent simulations (default GOMAXPROCS)")
	queue := flag.Int("queue", 64, "queued-job capacity before submissions get HTTP 429")
	state := flag.String("state", "", "state directory for the result cache and checkpoints (required)")
	drain := flag.Duration("drain", 30*time.Second, "how long a shutdown lets running jobs finish before checkpointing them")
	checkpointEvery := flag.Uint64("checkpoint-every", 0, "periodic crash-safety checkpoint cadence in measured cycles (0 = simulator default)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock deadline; a job that runs longer fails explicitly (0 = no deadline)")
	maxSweepPoints := flag.Int("max-sweep-points", 0, "largest grid POST /v1/sweeps will expand (0 = sweep engine default)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof/* on this extra address (e.g. 127.0.0.1:6060); off when empty")
	common := cliflags.Register(flag.CommandLine, cliflags.Spec{Command: "nucaserve", Profiles: true})
	flag.Parse()

	if *state == "" {
		fmt.Fprintln(os.Stderr, "nucaserve: -state is required")
		os.Exit(2)
	}
	session, err := common.Open(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv, err := serve.New(serve.Options{
		StateDir:        *state,
		Workers:         *workers,
		QueueDepth:      *queue,
		DrainTimeout:    *drain,
		CheckpointEvery: *checkpointEvery,
		JobTimeout:      *jobTimeout,
		MaxSweepPoints:  *maxSweepPoints,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		session.Close(false)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		session.Close(false)
		os.Exit(1)
	}
	fmt.Printf("nucaserve listening on %s (state %s)\n", ln.Addr(), *state)
	if *addrFile != "" {
		err := atomicio.WriteFile(*addrFile, func(w io.Writer) error {
			_, err := fmt.Fprintln(w, ln.Addr())
			return err
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			session.Close(false)
			os.Exit(1)
		}
	}

	httpServer := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpServer.Serve(ln) }()

	// Optional profiling listener, kept off the API mux deliberately: the
	// pprof endpoints can dump memory and block the scheduler, so they
	// only exist where -debug-addr points (normally localhost).
	var debugServer *http.Server
	if *debugAddr != "" {
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			session.Close(false)
			os.Exit(1)
		}
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", httppprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		debugServer = &http.Server{Handler: debugMux}
		fmt.Printf("nucaserve debug endpoints on http://%s/debug/pprof/\n", debugLn.Addr())
		go debugServer.Serve(debugLn)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		session.Close(false)
		os.Exit(1)
	}
	stop()

	// Drain: stop taking jobs, let running ones finish or checkpoint. The
	// HTTP listener stays up throughout so clients can watch the drain;
	// /readyz flips to 503 immediately.
	fmt.Println("nucaserve: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain+30*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	httpServer.Shutdown(httpCtx)
	if debugServer != nil {
		debugServer.Shutdown(httpCtx)
	}
	if err := session.Close(true); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("nucaserve: drained, state persisted")
}
