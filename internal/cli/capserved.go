package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	coordattack "repro"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

// Capserved runs the resilient analysis service until SIGTERM/SIGINT,
// then drains gracefully: readiness flips, the listener stops
// accepting, in-flight requests finish under the drain deadline, and
// final metrics are flushed to stderr.
//
// With -coordinator it runs the cluster router instead: the node's own
// request pipeline (admission, singleflight, one LRU verdict cache, the
// warm store, batches) whose compute is a request consistent-hashed
// across the -backends capserved instances, with hedging and per-shard
// circuit breakers; a chaos campaign is one such request, answered
// whole by one backend, and index and unindex are answered by the
// coordinator itself. Membership is live: the
// admin API (GET/POST/DELETE /v1/cluster/members) joins and removes
// backends at runtime, and the health prober ejects dead backends from
// routing and readmits recovered ones.
func Capserved(args []string, stdout, stderr io.Writer) int {
	srv, code := capservedServer(args, stderr)
	if srv == nil {
		return code
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := srv.ListenAndServe(ctx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, "capserved: clean shutdown")
	return 0
}

// capservedServer builds the node or coordinator the flags describe;
// on bad flags it returns nil and the exit code.
func capservedServer(args []string, stderr io.Writer) (interface {
	ListenAndServe(context.Context) error
	Handler() http.Handler
}, int) {
	fs := flag.NewFlagSet("capserved", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address (use :0 for an ephemeral port)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline ceiling")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline")
	concurrency := fs.Int("concurrency", 0, "max concurrent expensive analyses on a node (0 = GOMAXPROCS; a -coordinator admits 64)")
	queue := fs.Int("queue", 0, "a node's admission queue depth before shedding (0 = 2x concurrency; a -coordinator queues 128)")
	cache := fs.Int("cache", 0, "LRU result-cache entries (0 = the role default: 1024 on a node, 4096 on a -coordinator)")
	breakerTrip := fs.Int("breaker-trip", 0, "consecutive failures that trip a circuit breaker (0 = the role default: 5 engine failures on a node, 3 failures of one shard on a -coordinator)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "breaker fast-fail window before a half-open probe (0 = the role default: 10s on a node, 5s per shard on a -coordinator)")
	maxHorizon := fs.Int("max-horizon", 12, "largest accepted analysis horizon")
	maxBatch := fs.Int("max-batch", 64, "largest accepted /v1/solve/batch item count")
	backendStr := fs.String("backend", "auto", "analysis backend for served requests: auto|symbolic|enumerate")
	warmStore := fs.String("warm-store", "", "path of the append-only warm verdict store (a binary warm segment whose newest -cache verdicts are preloaded at boot; a non-segment file is discarded)")
	coordinator := fs.Bool("coordinator", false, "run as cluster coordinator over -backends instead of serving analyses directly")
	backends := fs.String("backends", "", "comma-separated backend base URLs for -coordinator mode (e.g. http://127.0.0.1:8321,http://127.0.0.1:8322)")
	replicas := fs.Int("replicas", 2, "replica candidates per keyed request in -coordinator mode")
	hedgeDelay := fs.Duration("hedge-delay", 250*time.Millisecond, "silence before a keyed request is hedged to the next replica (-coordinator mode)")
	probeInterval := fs.Duration("probe-interval", time.Second, "health-probe period for live membership in -coordinator mode (0 disables the prober)")
	probeTimeout := fs.Duration("probe-timeout", 0, "per-probe deadline (0 = min(probe-interval, 1s))")
	probeFail := fs.Int("probe-fail", 3, "consecutive probe failures that eject a backend from routing")
	probeRecover := fs.Int("probe-recover", 2, "consecutive probe successes that readmit an ejected backend")
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}

	if *coordinator {
		var bases []string
		for _, b := range strings.Split(*backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				bases = append(bases, strings.TrimSuffix(b, "/"))
			}
		}
		co, err := cluster.New(cluster.Config{
			Addr:                  *addr,
			Backends:              bases,
			Replicas:              *replicas,
			HedgeDelay:            *hedgeDelay,
			RequestTimeout:        *timeout,
			DrainTimeout:          *drain,
			CacheEntries:          *cache,
			WarmStorePath:         *warmStore,
			BreakerThreshold:      *breakerTrip,
			BreakerCooldown:       *breakerCooldown,
			ProbeInterval:         *probeInterval,
			ProbeTimeout:          *probeTimeout,
			ProbeFailThreshold:    *probeFail,
			ProbeRecoverThreshold: *probeRecover,
			Logf:                  logf,
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 2
		}
		return co, 0
	}

	backend, err := coordattack.ParseEngineBackend(*backendStr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 2
	}
	return serve.New(serve.Config{
		Addr:                *addr,
		AnalysisConcurrency: *concurrency,
		QueueDepth:          *queue,
		RequestTimeout:      *timeout,
		DrainTimeout:        *drain,
		CacheEntries:        *cache,
		WarmStorePath:       *warmStore,
		BreakerThreshold:    *breakerTrip,
		BreakerCooldown:     *breakerCooldown,
		MaxHorizon:          *maxHorizon,
		MaxBatchItems:       *maxBatch,
		Backend:             backend,
		Logf:                logf,
	}), 0
}
