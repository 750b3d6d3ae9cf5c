// Command dipserve runs the HTTP certification service: POST
// /v1/certify accepts a JSON request naming a protocol plus an
// instance (inline edge list or generator spec; graphgen -format edges
// emits compatible bodies) and responds with the verdict, per-round
// proof-size stats, and the deterministic trace fingerprint. POST
// /v1/soundness runs a bounded Monte-Carlo soundness sweep. GET
// /healthz reports liveness, GET /v1/readyz queue-headroom readiness;
// GET /v1/metricsz streams counters, gauges, and latency histograms as
// NDJSON or Prometheus text exposition (?format=prometheus; schema in
// SERVICE.md and OBSERVABILITY.md). GET /v1/specz serves the
// machine-readable route table. Unversioned legacy paths still serve
// with Deprecation + Sunset headers pointing at their /v1 successors.
//
// Every computed verdict is appended to a Merkle-batched certificate
// ledger (-ledger-dir selects the append-only on-disk backend; without
// it the ledger is in-memory, -ledger-batch -1 disables it). GET
// /v1/certificates/{hash} returns the durable certificate with its
// inclusion proof once the batch seals; GET /v1/ledger/rootz exposes
// the batch root chain for offline verification with cmd/dipcert. On
// restart the persisted ledger replays into the result cache, so
// previously certified requests answer as cache hits.
//
// Requests are dispatched onto a sharded bounded-queue worker pool —
// full queues answer 429 instead of growing memory — behind an LRU
// result cache with singleflight deduplication. SIGINT/SIGTERM drain
// in-flight requests and exit 0.
//
// Observability flags: -accesslog FILE writes one NDJSON row per
// request ("-" for stderr); -pprof ADDR mounts net/http/pprof on a
// separate side listener (never on the serving port), so profiles can
// be pulled from a live server: go tool pprof
// http://ADDR/debug/pprof/profile?seconds=5
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addrfile", "", "write the bound address to this file once listening")
	shards := flag.Int("shards", 0, "worker-pool shards (0 = default 4)")
	workers := flag.Int("workers", 0, "workers per shard (0 = GOMAXPROCS/shards)")
	queue := flag.Int("queue", 0, "pending jobs per shard before 429 (0 = default 64)")
	cacheCap := flag.Int("cache", 0, "result-cache entries, negative disables (0 = default 1024)")
	timeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 30s)")
	accessLog := flag.String("accesslog", "", "write NDJSON access log to this file (\"-\" = stderr)")
	epoch := flag.Duration("epoch", 0, "batch admission epoch interval (0 = 25ms)")
	batchMax := flag.Int("epochitems", 0, "max items admitted per epoch / early-flush threshold (0 = 256)")
	quantum := flag.Int("quantum", 0, "deficit-round-robin credit per tenant per round (0 = 8)")
	tenantInFlight := flag.Int("tenant-inflight", 0, "per-tenant concurrently admitted items (0 = 16)")
	tenantQueue := flag.Int("tenant-queue", 0, "per-tenant queued-item bound before 429 (0 = 4096)")
	maxBatch := flag.Int("maxbatch", 0, "max items per batch request (0 = 512)")
	retention := flag.Duration("retention", 0, "finished-job retention before eviction (0 = 5m)")
	maxJobs := flag.Int("maxjobs", 0, "max tracked jobs, running plus retained (0 = 1024)")
	maxWait := flag.Duration("maxwait", 0, "cap on /v1/jobs long-poll ?wait= (0 = 30s)")
	ledgerDir := flag.String("ledger-dir", "", "certificate-ledger directory for the on-disk backend (empty = in-memory ledger)")
	ledgerBatch := flag.Int("ledger-batch", 0, "ledger entries per Merkle batch, negative disables the ledger (0 = default 64)")
	ledgerFlush := flag.Duration("ledger-flush", 0, "seal a quiet ledger tail on this interval, negative disables the timer (0 = 2s)")
	pprofAddr := flag.String("pprof", "", "mount net/http/pprof on this side address (e.g. 127.0.0.1:6060; empty disables)")
	pprofAddrFile := flag.String("pprofaddrfile", "", "write the bound pprof address to this file once listening")
	flag.Parse()

	cfg := serve.Config{
		Shards:              *shards,
		WorkersPerShard:     *workers,
		QueueLen:            *queue,
		CacheCapacity:       *cacheCap,
		DefaultTimeout:      *timeout,
		BatchEpochInterval:  *epoch,
		BatchMaxItems:       *batchMax,
		BatchQuantum:        *quantum,
		TenantInFlight:      *tenantInFlight,
		TenantQueueCap:      *tenantQueue,
		MaxBatchItems:       *maxBatch,
		JobRetention:        *retention,
		MaxJobs:             *maxJobs,
		MaxWait:             *maxWait,
		LedgerDir:           *ledgerDir,
		LedgerBatchSize:     *ledgerBatch,
		LedgerFlushInterval: *ledgerFlush,
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		f, err := os.Create(*accessLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dipserve:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.AccessLog = f
	}
	if err := run(*addr, *addrFile, *pprofAddr, *pprofAddrFile, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "dipserve:", err)
		os.Exit(1)
	}
}

// servePprof mounts the pprof handlers on their own mux and listener,
// so profiling traffic can be firewalled separately from the API and a
// runaway profile pull cannot occupy an API connection.
func servePprof(addr, addrFile string) (io.Closer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			ln.Close()
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "dipserve: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go http.Serve(ln, mux)
	return ln, nil
}

func run(addr, addrFile, pprofAddr, pprofAddrFile string, cfg serve.Config) error {
	// The handler is in place before any address is published: a
	// SIGTERM sent the moment -addrfile appears must drain and close the
	// ledger, not kill the process by the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()

	if pprofAddr != "" {
		closer, err := servePprof(pprofAddr, pprofAddrFile)
		if err != nil {
			return err
		}
		defer closer.Close()
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		// Written after Listen succeeds: a reader that sees the file can
		// connect immediately. Port 0 plus -addrfile is the race-free way
		// for scripts to start the server on a free port.
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dipserve: listening on %s\n", bound)

	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "dipserve: %v, draining\n", got)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
