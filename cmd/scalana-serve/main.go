// Command scalana-serve runs the detection service: the paper's
// profile → PPG → detect → report workflow (§V) as a long-running HTTP
// server over a content-addressed profile store. Clients upload
// profile-set wire files (scalana-prof -o output, the
// prof.EncodeProfileSet format) and query detect reports, sweep
// comparisons and watches of a run against its history as JSON; one
// shared engine compiles each app once no matter how many uploads and
// queries touch it, and concurrent identical detect requests coalesce
// into a single computation.
//
// Usage:
//
//	scalana-serve -store /var/lib/scalana
//	scalana-serve -addr 127.0.0.1:8135 -store ./store -parallel 4
//
// Quickstart against a running server:
//
//	scalana-prof -app cg -np 4 -hz 1000 -o cg.4.json
//	curl --data-binary @cg.4.json http://localhost:8135/v1/profiles
//	curl -X POST -d '{"app":"cg"}' http://localhost:8135/v1/detect
//
// With several uploads stored per (app, np), GET /v1/watch scores the
// newest against the rolling baseline of its predecessors, with
// thresholds set per request by query parameters.
//
// SIGINT or SIGTERM stops the listener at once and gives requests already
// in flight shutdownGrace to finish; the process then exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scalana/internal/serve"
	"scalana/internal/store"

	scalana "scalana"
)

// shutdownGrace is how long requests in flight at a termination signal
// have to finish.
const shutdownGrace = 30 * time.Second

func main() {
	log.SetFlags(0)
	log.SetPrefix("scalana-serve: ")
	addr := flag.String("addr", "localhost:8135", "listen address")
	storeDir := flag.String("store", "", "profile store directory (required; created if missing)")
	parallel := flag.Int("parallel", 0, "bound on concurrent simulation/PPG work (0 = one per CPU); also fans simulate-mode sweeps")
	hz := flag.Float64("hz", 1000, "profiler sampling frequency for simulate-mode detect runs")
	quiet := flag.Bool("quiet", false, "suppress the per-request log")
	flag.Parse()
	if *parallel < 0 {
		log.Fatalf("-parallel %d: must be at least 0 (0 = one per CPU)", *parallel)
	}

	if *storeDir == "" {
		log.Fatalf("-store is required")
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	logger := log.New(os.Stderr, "scalana-serve: ", log.LstdFlags)
	cfg := serve.Config{
		Store:       st,
		Engine:      scalana.NewEngine(),
		Parallelism: *parallel,
		SampleHz:    *hz,
	}
	if !*quiet {
		cfg.Logf = logger.Printf
	}
	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// A slow header and an idle keep-alive connection hold nothing worth
	// waiting for. There is no body or write timeout: an upload may be
	// 256 MB, and a simulate-mode sweep answers when it is done.
	server := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- server.ListenAndServe() }()
	logger.Printf("listening on %s (store: %s)", *addr, st.Root())
	select {
	case err := <-served:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal ends the process the default way
	logger.Printf("shutting down: requests in flight have %s", shutdownGrace)
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := server.Shutdown(grace); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
