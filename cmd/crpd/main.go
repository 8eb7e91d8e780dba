// Command crpd is the CR&P daemon: a long-running multi-tenant job service.
// It runs in one of two modes:
//
// Daemon mode (-listen): serve the multi-tenant job API. Jobs — inline
// LEF/DEF or synthetic designs plus CR&P parameters — are admitted into a
// bounded queue, run on a bounded worker pool under per-job budgets and
// crash-safe checkpoint directories, and observed over HTTP/JSON
// (per-iteration progress and degradation events stream as NDJSON).
// Preempted or crashed jobs resume from their last checkpoint on any free
// worker slot with outputs bit-identical to an uninterrupted run. SIGTERM
// drains gracefully: admission closes, in-flight jobs checkpoint and
// requeue, and a restarted daemon on the same -data-dir picks them up.
//
//	crpd -listen :8731 -data-dir /var/lib/crpd [-workers 2] [-queue-cap 16]
//	     [-tenant-cap-active 8] [-tenant-cap-running 1] [-retry-cap 3]
//	     [-retry-budget 0] [-drain-grace 10s] [-isolate]
//	     [-node-id NODE] [-store-dir DIR] [-lease-ttl 10s] [-shed-policy off]
//	     [-no-cache]
//
// Several daemons may share one job store (-store-dir, an alias for
// -data-dir that wins when both are set) as long as each uses a distinct
// -node-id: jobs are claimed through fencing-token leases, a crashed
// node's work is adopted by the survivors after -lease-ttl without
// heartbeats, and a partitioned ex-owner's stale writes are fenced.
// -shed-policy degrade[:k=N,at=F,budget-ms=M] turns on degraded admission
// near queue saturation (every clamp is recorded in the job's result).
//
// Worker mode (CRPD_RUN_JOB=<jobdir> in the environment): internal. A
// daemon started with -isolate re-execs itself in this mode to run each
// job attempt in its own process, so a worker crash — SIGKILL included —
// cannot take the daemon or its other jobs down.
//
// A single checkpointed run needs no daemon: `crp -checkpoint-dir DIR
// -resume` continues a killed run bit-identically when rerun.
//
// Exit status: 0 on success, 1 on a failed serve or drain, 2 on usage
// errors; worker mode exits with the attempt's protocol code.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/crp-eda/crp/internal/service"
)

func main() {
	if dir := os.Getenv(service.EnvRunJob); dir != "" {
		os.Exit(service.RunWorkerAttempt(dir))
	}

	var (
		listen      = flag.String("listen", "", "serve the job API on this address")
		dataDir     = flag.String("data-dir", "", "job state root (required unless -store-dir is set)")
		workers     = flag.Int("workers", 2, "concurrent job slots")
		queueCap    = flag.Int("queue-cap", 16, "bounded queue capacity")
		tenantAct   = flag.Int("tenant-cap-active", 0, "per-tenant queued+running cap, 0 = queue-cap")
		tenantRun   = flag.Int("tenant-cap-running", 0, "per-tenant running cap, 0 = workers")
		retryCap    = flag.Int("retry-cap", 3, "attempts per job activation")
		retryBudget = flag.Duration("retry-budget", 0, "wall-clock cap per activation's retries, 0 = uncapped")
		drainGrace  = flag.Duration("drain-grace", 10*time.Second, "wait for a checkpoint boundary before hard-cancelling")
		isolate     = flag.Bool("isolate", false, "run each job attempt in a child process")
		nodeID      = flag.String("node-id", "", "this daemon's identity in a shared job store, default node-<pid>")
		storeDir    = flag.String("store-dir", "", "shared job store root; overrides -data-dir")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "job-claim lease TTL; failover latency after a node dies")
		shedPolicy  = flag.String("shed-policy", "off", "degraded admission near saturation: off | degrade[:k=N,at=F,budget-ms=M]")
		noCache     = flag.Bool("no-cache", false, "disable exact-result-cache serving at admission")
	)
	flag.Parse()

	if *listen == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "crpd: need -listen ADDR and no arguments (a killed crp run continues with crp -checkpoint-dir DIR -resume)")
		flag.Usage()
		os.Exit(2)
	}
	dir := *dataDir
	if *storeDir != "" {
		dir = *storeDir
	}
	os.Exit(runDaemon(daemonFlags{
		listen: *listen, dataDir: dir, workers: *workers,
		queueCap: *queueCap, tenantActive: *tenantAct, tenantRunning: *tenantRun,
		retryCap: *retryCap, retryBudget: *retryBudget, drainGrace: *drainGrace,
		isolate: *isolate, nodeID: *nodeID, leaseTTL: *leaseTTL,
		shedPolicy: *shedPolicy, noCache: *noCache,
	}))
}

type daemonFlags struct {
	listen, dataDir                       string
	workers, queueCap                     int
	tenantActive, tenantRunning, retryCap int
	retryBudget                           time.Duration
	drainGrace                            time.Duration
	isolate                               bool
	nodeID                                string
	leaseTTL                              time.Duration
	shedPolicy                            string
	noCache                               bool
}

// parseShedPolicy parses the -shed-policy flag: "off" (or empty) disables
// degraded admission, "degrade" enables it with the defaults, and
// "degrade:k=N,at=F,budget-ms=M" tunes the iteration clamp, the engagement
// fraction of the queue and the flow-budget clamp.
func parseShedPolicy(s string) (*service.ShedPolicy, error) {
	switch s {
	case "", "off":
		return nil, nil
	case "degrade":
		return &service.ShedPolicy{}, nil
	}
	rest, ok := strings.CutPrefix(s, "degrade:")
	if !ok {
		return nil, fmt.Errorf("unknown shed policy %q (want off or degrade[:k=N,at=F,budget-ms=M])", s)
	}
	p := &service.ShedPolicy{}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("shed policy option %q is not key=value", kv)
		}
		var err error
		switch key {
		case "k":
			p.MaxK, err = strconv.Atoi(val)
		case "at":
			p.Threshold, err = strconv.ParseFloat(val, 64)
		case "budget-ms":
			p.FlowBudgetMS, err = strconv.ParseInt(val, 10, 64)
		default:
			return nil, fmt.Errorf("unknown shed policy option %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("shed policy option %s: %v", key, err)
		}
	}
	return p, nil
}

func runDaemon(f daemonFlags) int {
	if f.dataDir == "" {
		fmt.Fprintln(os.Stderr, "crpd: -listen requires -data-dir (or -store-dir)")
		return 2
	}
	shed, err := parseShedPolicy(f.shedPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crpd:", err)
		return 2
	}
	cfg := service.Config{
		DataDir:          f.dataDir,
		Workers:          f.workers,
		QueueCap:         f.queueCap,
		TenantMaxActive:  f.tenantActive,
		TenantMaxRunning: f.tenantRunning,
		RetryCap:         f.retryCap,
		RetryBudget:      f.retryBudget,
		DrainGrace:       f.drainGrace,
		NodeID:           f.nodeID,
		LeaseTTL:         f.leaseTTL,
		Shed:             shed,
		DisableCache:     f.noCache,
	}
	if f.isolate {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "crpd: resolving own binary for -isolate:", err)
			return 1
		}
		cfg.Exec = []string{exe}
	}
	svc, err := service.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crpd:", err)
		return 1
	}
	srv := &http.Server{Addr: f.listen, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "crpd: serving on %s (data %s, %d workers, queue %d)\n",
		f.listen, f.dataDir, cfg.Workers, cfg.QueueCap)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "crpd: serve:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: checkpoint and requeue every in-flight job, then
	// stop accepting connections. A follow-up crpd on the same -data-dir
	// resumes the queue exactly where it stood.
	fmt.Fprintln(os.Stderr, "crpd: draining (in-flight jobs checkpoint and requeue)")
	dctx, dcancel := context.WithTimeout(context.Background(), 2*cfg.DrainGrace+30*time.Second)
	defer dcancel()
	code := 0
	if err := svc.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "crpd:", err)
		code = 1
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "crpd: shutdown:", err)
		code = 1
	}
	<-errCh // ListenAndServe returns ErrServerClosed after Shutdown
	return code
}
