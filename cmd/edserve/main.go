// Command edserve runs the attack-as-a-service daemon: a persistent HTTP
// server over the repository's attack, evaluation, and sweep-screening
// pipelines with cross-request warm state (dispatch models, sweep PTDF/LODF
// precomputation, simplex root bases) held per topology in one LRU.
//
// Usage:
//
//	edserve [-addr :8787] [-workers N] [-queue 64] [-deadline 60s]
//	        [-topologies 8] [-attack-workers 1] [-flight-cap 4096]
//
// Endpoints (all POST bodies JSON, responses NDJSON event streams):
//
//	POST /v1/attack    {"case":"case118","max_nodes":0,"deadline_ms":0,...}
//	POST /v1/evaluate  {"case":"case9","dlr":{"1":260,"7":240}}
//	POST /v1/sweep     {"case":"case9","hours":[0,12],"magnitudes":[0,0.2],"draws":64,"seed":1}
//	GET  /healthz, /v1/stats, /metrics, /metrics.json, /debug/pprof/*, /debug/flight
//
// The process drains gracefully on SIGINT/SIGTERM: new requests answer 503,
// queued jobs fail fast, in-flight solves finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/edsec/edattack/internal/serve"
	"github.com/edsec/edattack/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "edserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8787", "listen address")
	workers := flag.Int("workers", 0, "job-execution goroutines (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth; full queue answers 429 (0 = 64)")
	deadline := flag.Duration("deadline", 0, "per-request deadline; a request's deadline_ms may only shorten it (0 = 60s)")
	topologies := flag.Int("topologies", 0, "resident warm topology bundles, LRU-evicted (0 = 8)")
	attackWorkers := flag.Int("attack-workers", 0, "core solver workers per attack job (0 = 1, the reproducible setting)")
	flightCap := flag.Int("flight-cap", 4096, "flight-recorder ring size (0 disables)")
	flag.Parse()

	reg := telemetry.NewRegistry()
	var flight *telemetry.Flight
	if *flightCap > 0 {
		flight = telemetry.NewFlight(*flightCap)
	}
	s := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxTopologies:   *topologies,
		AttackWorkers:   *attackWorkers,
		Metrics:         reg,
		Flight:          flight,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("edserve listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Println("edserve: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	s.Close()
	return err
}
