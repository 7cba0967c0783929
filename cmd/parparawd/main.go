// Command parparawd is the long-running ingestion daemon: an HTTP
// service that streams request bodies through the parallel parsing
// pipeline and answers with parsed statistics or the materialised
// table as CSV.
//
// Usage:
//
//	parparawd [-addr :8080] [-cache 64] [-budget 256MB]
//	          [-partition-size 1MB] [-retry 3] [-retry-after 1s]
//
// Endpoints:
//
//	POST /ingest    parse the request body; query parameters select
//	                dialect, schema, projection/predicate pushdown,
//	                tagging mode, output shape, and tenant
//	GET  /metrics   Prometheus-style counters
//	GET  /healthz   liveness probe
//	GET  /dialects  registered dialect presets
//
// Example:
//
//	curl -sS --data-binary @flights.csv \
//	  'localhost:8080/ingest?format=csv&header=1&where=4:int:0:100'
//
// Plans are compiled once per distinct configuration and cached in a
// bounded LRU (-cache engines); each tenant parses on its own engine
// sharing the cached plan but recycling a private arena pool. -budget
// bounds the estimated device bytes of requests concurrently in
// flight: requests beyond it are answered 429 with a Retry-After hint
// (-retry-after). -retry N retries transient request-body read
// failures up to N attempts per read position. SIGINT/SIGTERM drain
// in-flight requests and exit cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	parparaw "repro"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cache := flag.Int("cache", parparaw.DefaultCacheEngines, "plan-cache capacity in compiled engines")
	budget := flag.String("budget", "0", "device-bytes admission budget (e.g. 256MB; 0 = unlimited)")
	partition := flag.String("partition-size", "", "streaming partition size (default parparaw.DefaultPartitionSize, 1MB)")
	retry := flag.Int("retry", 0, "retry transient body-read failures up to N attempts per position (0 disables)")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
	flag.Parse()

	if err := run(*addr, *cache, *budget, *partition, *retry, *retryAfter); err != nil {
		fmt.Fprintln(os.Stderr, "parparawd:", err)
		os.Exit(1)
	}
}

func run(addr string, cache int, budgetSpec, partitionSpec string, retry int, retryAfter time.Duration) error {
	var budget int64
	if budgetSpec != "" && budgetSpec != "0" {
		n, err := parparaw.ParseSizeSpec(budgetSpec)
		if err != nil {
			return err
		}
		budget = int64(n)
	}
	partitionSize := parparaw.DefaultPartitionSize
	if partitionSpec != "" {
		var err error
		if partitionSize, err = parparaw.ParseSizeSpec(partitionSpec); err != nil {
			return err
		}
	}

	server := parparaw.NewServer(parparaw.ServerConfig{
		CacheEngines:  cache,
		DeviceBudget:  budget,
		PartitionSize: partitionSize,
		RetryAfter:    retryAfter,
		Retry:         parparaw.RetryPolicy{MaxAttempts: retry},
	})

	httpServer := &http.Server{
		Addr:              addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// SIGINT/SIGTERM drain: stop accepting, let in-flight parses finish
	// (each request's body read is bounded by the client, so a stuck
	// client can't block shutdown past the grace period).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "parparawd: listening on %s (cache %d engines, budget %d B, partitions %d B)\n",
			addr, cache, budget, partitionSize)
		errc <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "parparawd: drained, bye")
	return nil
}
