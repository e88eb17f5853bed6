// Command router is the cluster-serving front end (DESIGN.md §14): it
// spreads /v1 and /v2 traffic across N replica cmd/serve processes —
// least-loaded routing for predict, consistent-hash-by-session for
// streaming rollouts, retry-once on connect failure, rolling
// hot-swaps across the fleet, and warm standby replicas.
//
// Usage:
//
//	router -addr 127.0.0.1:8090 \
//	    -replica r1=http://127.0.0.1:8081 \
//	    -replica r2=http://127.0.0.1:8082 \
//	    -replica r3=http://127.0.0.1:8083 \
//	    -standby r4=http://127.0.0.1:8084
//
// Each replica is an independent cmd/serve process (typically booted
// from the same model artifact directory; give each a distinct
// -replica id so its healthz names itself). Standby replicas are
// pre-loaded the same way — usually from the artifact dir of the
// version currently deployed — but receive no traffic until promoted.
//
// Endpoints:
//
//	GET  /healthz           fleet health: per-replica state (ready |
//	                        degraded | down), version, in-flight load
//	GET  /metrics           router counters: requests, retries, failed
//	                        requests, swaps, per-replica state/load
//	POST /v2/admin/swap     {"name","version","dir"}: rolling hot-swap —
//	                        drives each replica's zero-downtime swap in
//	                        sequence, waiting for its healthz to report
//	                        the new version before the next; aborts if
//	                        a replica never converges
//	POST /v2/admin/promote  {"name":"r4"}: move a warm standby into the
//	                        routed set
//	GET|POST /v2/admin/policy  with -policy: read / hot-reload the edge
//	                        admission policy (DESIGN.md §15); SIGHUP
//	                        re-reads the -policy file
//	everything else         proxied to a replica (predict, rollout,
//	                        /v2/models, the /v1 surface)
//
// With -policy the router runs edge admission control ahead of
// routing (DESIGN.md §15): CIDR allow/deny via a longest-prefix-match
// trie, per-client token buckets, and priority load shedding, with
// typed 403/429/503 envelopes and repro_admission_* metrics. The
// router overwrites X-Forwarded-For with the connection's remote
// address, so replicas behind it may trust the header via
// -policy-xff. Without -policy admission is fully off.
//
// A request that dies on a replica before any response byte is
// replayed once on another replica and the dead replica is marked
// down — `make smoke-cluster` kill -9s a replica under sustained load
// and asserts zero failed client requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/router"
	"repro/internal/serve"
)

// setupAdmission wraps the router in the edge admission Gate
// (DESIGN.md §15) when -policy names a policy file — fleet-edge
// admission, protecting every replica behind this router — and
// arranges SIGHUP hot reloads. Mirrors cmd/serve's replica-side
// wiring.
func setupAdmission(handler http.Handler, policyPath string, accessLog *log.Logger) (http.Handler, error) {
	if policyPath == "" {
		return handler, nil
	}
	pol, err := admission.LoadPolicyFile(policyPath)
	if err != nil {
		return nil, err
	}
	gate, err := admission.New(handler, pol, admission.Config{AccessLog: accessLog})
	if err != nil {
		return nil, err
	}
	fmt.Printf("admission: policy %s (classes %s); reload via SIGHUP or POST %s\n",
		policyPath, strings.Join(gate.Classes(), ","), admission.PolicyAdminPath)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			pol, err := admission.LoadPolicyFile(policyPath)
			if err != nil {
				log.Printf("admission: SIGHUP reload: %v", err)
				continue
			}
			if err := gate.SetPolicy(pol); err != nil {
				log.Printf("admission: SIGHUP reload: %v", err)
				continue
			}
			log.Printf("admission: policy reloaded from %s (reload #%d)", policyPath, gate.Reloads())
		}
	}()
	return gate, nil
}

// specList collects repeated -replica / -standby id=url flags.
type specList []router.ReplicaSpec

func (l *specList) String() string {
	parts := make([]string, len(*l))
	for i, s := range *l {
		parts[i] = s.ID + "=" + s.URL
	}
	return strings.Join(parts, ",")
}

func (l *specList) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return fmt.Errorf("want id=url, got %q", v)
	}
	*l = append(*l, router.ReplicaSpec{ID: id, URL: url})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("router: ")

	var replicas, standbys specList
	var (
		addr          = flag.String("addr", "127.0.0.1:8090", "listen address (port 0 = pick a free port)")
		probeInterval = flag.Duration("probe-interval", 250*time.Millisecond, "healthy re-probe period (failed probes back off exponentially)")
		probeTimeout  = flag.Duration("probe-timeout", 2*time.Second, "per-probe healthz timeout")
		backoffMax    = flag.Duration("backoff-max", 5*time.Second, "cap on the failed-probe backoff")
		swapTimeout   = flag.Duration("swap-timeout", 60*time.Second, "per-replica healthz-convergence timeout during a rolling swap")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
		accessLog     = flag.Bool("access-log", false, "log one line per routed request (method, path, status, replica, retries, request ID) to stderr")
		policyPath    = flag.String("policy", "", "admission policy file (DESIGN.md §15) enforced at the fleet edge, ahead of replica picking; empty = admission off")
	)
	flag.Var(&replicas, "replica", "routed replica as id=url (repeatable)")
	flag.Var(&standbys, "standby", "warm standby replica as id=url (repeatable): registered and health-probed but unrouted until POST /v2/admin/promote")
	flag.Parse()
	if len(replicas) == 0 {
		log.Fatal("at least one -replica id=url is required")
	}

	cfg := router.Config{
		Replicas:        replicas,
		Standbys:        standbys,
		ProbeInterval:   *probeInterval,
		ProbeTimeout:    *probeTimeout,
		ProbeBackoffMax: *backoffMax,
		SwapTimeout:     *swapTimeout,
	}
	if *accessLog {
		cfg.AccessLog = log.New(os.Stderr, "access: ", 0)
	}
	rt, err := router.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fleet := rt.Fleet()
	for _, rep := range fleet.Replicas {
		role := "replica"
		if rep.Standby {
			role = "standby"
		}
		fmt.Printf("%s %s at %s: %s (version %q)\n", role, rep.ID, rep.URL, rep.State, rep.Version)
	}

	handler, err := setupAdmission(rt, *policyPath, cfg.AccessLog)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := serve.NewHTTPServer(handler)
	fmt.Printf("routing on %s (%d/%d replicas ready)\n", ln.Addr(), fleet.Ready, fleet.Total)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("draining…")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v (force-closing remaining connections)", err)
		_ = hs.Close()
	}
	rt.Close()
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	stats := rt.Stats()
	fmt.Printf("routed %d requests (%d retried, %d failed), %d rolling swaps\n",
		stats.Requests, stats.Retries, stats.Failed, stats.Swaps)
}
