// Command ssmpd serves the simulator as a long-running HTTP daemon: a
// bounded worker pool runs simulation jobs, a content-addressed cache
// serves repeated configurations without re-simulating, and /metrics
// exposes the serving counters.
//
// Usage:
//
//	ssmpd -addr :8080 -workers 8 -queue 32 -cache 4096
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/sim -d '{"procs":16,"workload":"queue"}'
//	curl -s 'localhost:8080/v1/figure/4?procs=2,4,8'
//	curl -s localhost:8080/metrics
//
// SIGINT/SIGTERM drain gracefully: in-flight jobs finish (up to
// -drain-timeout), new jobs get 503.
//
// Profiling a live daemon: -debug-addr serves net/http/pprof on a separate
// listener (keep it off the service address — it is unauthenticated), and
// -cpuprofile/-memprofile write whole-process profiles on shutdown:
//
//	ssmpd -addr :8080 -debug-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"ssmp/internal/server"
)

// readHeaderTimeout drops a client that opens a connection and then trickles
// (or never sends) its request headers, which would otherwise hold the
// connection and its goroutine forever. Request bodies are capped by the
// server package; job run time by -timeout and -max-timeout.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "job queue depth (0 = 4x workers)")
	cacheEntries := flag.Int("cache", 4096, "result cache entries (negative disables)")
	defaultTimeout := flag.Duration("timeout", 60*time.Second, "default per-job timeout")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "cap on requested per-job timeouts")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "shutdown drain deadline")
	quiet := flag.Bool("quiet", false, "suppress request logging")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the daemon's lifetime to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on shutdown")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Fatalf("ssmpd: cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Fatalf("ssmpd: cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *debugAddr != "" {
		// The pprof import registers on http.DefaultServeMux; serve that mux
		// only on the dedicated debug listener so the service address never
		// exposes it.
		go func() {
			logger.Printf("ssmpd: pprof on http://%s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, http.DefaultServeMux); err != nil {
				logger.Printf("ssmpd: debug listener: %v", err)
			}
		}()
	}
	var srvLog *log.Logger
	if !*quiet {
		srvLog = logger
	}
	s := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheEntries,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		Log:            srvLog,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() {
		logger.Printf("ssmpd: listening on %s", *addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		logger.Fatalf("ssmpd: %v", err)
	case got := <-sig:
		logger.Printf("ssmpd: %v, draining (deadline %s)", got, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the worker pool.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("ssmpd: http shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		logger.Fatalf("ssmpd: drain incomplete: %v", err)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			logger.Fatalf("ssmpd: memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			logger.Fatalf("ssmpd: memprofile: %v", err)
		}
	}
	logger.Printf("ssmpd: bye")
}
