// Command serve exposes trained models over HTTP: one-step prediction
// behind per-model micro-batching request coalescers (core.Batcher),
// streaming rollout sessions, and the /v2 multi-model registry
// surface with zero-downtime hot swap (DESIGN.md §9–§10).
//
// Usage:
//
//	serve -ckpt ckpt -addr 127.0.0.1:8080 -max-batch 8 -max-delay 2ms
//	serve -ckpt ckpt -model prod          # publish under an explicit name
//
// -max-batch caps a predict micro-batch; -max-delay is the cap on the
// wait for batchmates that are arriving. A batch waits only while
// another predict is on its way, so a lone request dispatches at once.
//
// Endpoints:
//
//	GET  /healthz                       per-model readiness + registry state (JSON)
//	GET  /metrics                       per-model request/batch counters, swap count
//	POST /v1/predict                    one-step prediction on the default model;
//	                                    body {"states":[{"shape":[c,h,w],"data":[...]}]}
//	                                    (or gob with Content-Type application/x-gob);
//	                                    concurrent requests are coalesced into micro-batches
//	POST /v1/rollout?steps=N            streaming rollout from the POSTed history
//	                                    (one JSON frame per chunk)
//	GET  /v1/rollout?steps=N            the same, from the -init dataset's opening history
//	GET  /v2/models                     list published models
//	POST /v2/models/{name}/predict      per-model predict (v1 wire format)
//	GET|POST /v2/models/{name}/rollout  per-model rollout (v1 wire format)
//	POST /v2/admin/load                 {"name","version","dir"}: publish another model
//	POST /v2/admin/swap                 {"name","version","dir"}: hot-swap a live model —
//	                                    new requests route to the new version immediately,
//	                                    in-flight ones drain on the old
//	POST /v2/admin/unload               {"name"}: retire a model
//	GET|POST /v2/admin/policy           read / hot-reload the admission policy
//	                                    (only with -policy; the POST body is the
//	                                    whole policy JSON document)
//
// With -policy FILE the whole surface sits behind the edge admission
// gate (DESIGN.md §15): CIDR allow/deny/class rules via a
// longest-prefix-match trie, per-client token buckets (429
// rate_limited + Retry-After), and priority-class load shedding
// against a concurrency budget (503 overloaded, lowest class first).
// SIGHUP re-reads the file and swaps the compiled policy atomically;
// /healthz, /metrics and /v2/admin/* stay exempt so probes and the
// un-wedging reload always get through. Without -policy nothing
// changes: admission is fully off by default.
//
// The checkpoint directory may be a versioned model artifact
// (manifest.json + digest-checked payloads, written by cmd/train) or
// a legacy directory of bare rank<N>.gob files; the model's name and
// version default to the manifest's (override with -model/-version).
//
// -addr with port 0 picks a free port; the chosen address is printed
// as "serving on host:port" once the listener is up, which is what
// scripts/smoke_serve.sh, scripts/smoke_swap.sh and
// scripts/loadtest.sh wait for.
//
// On SIGTERM/SIGINT the server drains gracefully: the listener stops
// accepting, in-flight requests (including open rollout streams) get
// -drain-timeout to finish, and every model's batcher flushes its
// queued predictions before the process exits.
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
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// setupAdmission wraps handler in the edge admission Gate (DESIGN.md
// §15) when -policy names a policy file, and arranges SIGHUP to
// re-read that file and hot-swap the compiled table (the other reload
// path, POST /v2/admin/policy, is served by the Gate itself). Shared
// verbatim in spirit with cmd/router — both front doors admit the
// same way.
func setupAdmission(handler http.Handler, policyPath string, trustXFF bool, accessLog *log.Logger) (http.Handler, error) {
	if policyPath == "" {
		return handler, nil
	}
	pol, err := admission.LoadPolicyFile(policyPath)
	if err != nil {
		return nil, err
	}
	gate, err := admission.New(handler, pol, admission.Config{
		TrustForwardedFor: trustXFF,
		AccessLog:         accessLog,
	})
	if err != nil {
		return nil, err
	}
	tabClasses := strings.Join(gate.Classes(), ",")
	fmt.Printf("admission: policy %s (classes %s); reload via SIGHUP or POST %s\n",
		policyPath, tabClasses, admission.PolicyAdminPath)
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = pick a free port)")
		ckptDir      = flag.String("ckpt", "ckpt", "model artifact (or legacy checkpoint) directory from cmd/train")
		modelName    = flag.String("model", "", "name to publish the boot model under (default: the artifact manifest's name, or \"default\")")
		modelVersion = flag.String("version", "", "version label for the boot model (default: the manifest's)")
		initPath     = flag.String("init", "", "dataset (.gob) whose opening snapshots seed GET rollouts")
		replicaID    = flag.String("replica", "", "fleet identity reported in /healthz when this process runs behind cmd/router")
		workers      = flag.Int("workers", 0, "serving parallelism: ranks fan out per micro-batch and convolution kernels tile-parallelize (0 = single-threaded; results are bit-identical for any value)")
		precision    = flag.String("precision", "f64", "serving compute precision: f64 (reference, bit-reproducible) | f32 (faster, within documented error budget)")
		maxBatch     = flag.Int("max-batch", 8, "micro-batch size cap for predict coalescing (per model)")
		maxDelay     = flag.Duration("max-delay", 2*time.Millisecond, "cap on the wait for predict batchmates that are arriving (a lone request dispatches at once)")
		maxSteps     = flag.Int("max-steps", 10000, "cap on the rollout steps query parameter")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
		accessLog    = flag.Bool("access-log", false, "log one line per request (method, path, status, duration, request ID) plus rollout comm summaries to stderr")
		policyPath   = flag.String("policy", "", "admission policy file (DESIGN.md §15): CIDR allow/deny/class rules, per-client rate limits, priority shed queues; empty = admission off")
		policyXFF    = flag.Bool("policy-xff", false, "trust the first X-Forwarded-For entry as the client address (enable ONLY behind cmd/router or another header-overwriting proxy)")
		chaosSpec    = flag.String("chaos", "", "fault-injection rules for session worlds, e.g. 'delay:*>*:d=2ms:p=0.5,drop:1>0:p=0.3' (kinds: delay|jitter|drop|dup|partition; testing only)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the deterministic chaos fault schedule")
		chaosRecvTO  = flag.Duration("chaos-recv-timeout", 5*time.Second, "receive deadline under chaos: a starved rank fails stop instead of hanging")
	)
	flag.Parse()

	prec, err := nn.ParsePrecision(*precision)
	if err != nil {
		log.Fatal(err)
	}

	e, man, err := core.OpenModel(*ckptDir)
	if err != nil {
		log.Fatal(err)
	}
	name, version := serve.ArtifactIdentity(man, serve.DefaultModelName, *modelName, *modelVersion)
	fmt.Printf("model %s@%s: %dx%d ranks on %dx%d grid, strategy %v, window %d\n",
		name, version, e.Partition.Px, e.Partition.Py, e.Partition.Nx, e.Partition.Ny,
		e.ModelCfg.Strategy, max(e.Window, 1))

	engOpts := []core.EngineOption{
		core.WithPrecision(prec),
	}
	if *workers > 0 {
		engOpts = append(engOpts, core.WithWorkers(*workers))
	}
	if *chaosSpec != "" {
		rules, err := mpi.ParseChaosRules(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		plan := mpi.ChaosPlan{Seed: *chaosSeed, RecvTimeout: *chaosRecvTO, Rules: rules}
		engOpts = append(engOpts, core.WithChaos(plan))
		fmt.Printf("chaos: %d rule(s), seed %d, recv timeout %v\n", len(rules), plan.Seed, *chaosRecvTO)
	}
	eng, err := core.NewEngine(e, engOpts...)
	if err != nil {
		log.Fatal(err)
	}

	cfg := serve.Config{
		MaxBatch:        *maxBatch,
		MaxDelay:        *maxDelay,
		MaxRolloutSteps: *maxSteps,
		DefaultModel:    name,
		Replica:         *replicaID,
		EngineOptions:   engOpts,
	}
	if *accessLog {
		cfg.AccessLog = log.New(os.Stderr, "access: ", 0)
	}
	if *initPath != "" {
		ds, err := dataset.Load(*initPath)
		if err != nil {
			log.Fatal(err)
		}
		norm, err := dataset.FitMinMax(ds, 0.1, 0.9)
		if err != nil {
			log.Fatal(err)
		}
		nds := dataset.NormalizeDataset(ds, norm)
		window := max(e.Window, 1)
		if nds.Len() < window {
			log.Fatalf("-init dataset has %d snapshots, temporal window needs %d", nds.Len(), window)
		}
		cfg.Initials = append([]*tensor.Tensor(nil), nds.Snapshots[:window]...)
	}
	srv, err := serve.NewMulti(nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.LoadEngine(name, version, eng); err != nil {
		log.Fatal(err)
	}

	handler, err := setupAdmission(srv, *policyPath, *policyXFF, cfg.AccessLog)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := serve.NewHTTPServer(handler)
	fmt.Printf("serving on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight handlers finish,
	// then flush every model's batcher queue and drain the registry.
	// Healthz flips to "draining" first so a router stops picking this
	// replica while the listener winds down.
	srv.SetDraining()
	fmt.Println("draining…")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		// The grace period expired with streams still open. Force-close
		// the remaining connections so their request contexts cancel
		// (sessions stop within one step) — otherwise srv.Close would
		// wait on them indefinitely.
		log.Printf("shutdown: %v (force-closing remaining connections)", err)
		_ = hs.Close()
	}
	stats := srv.Stats() // snapshot before Close tears the models down
	if err := srv.Close(); err != nil {
		log.Printf("registry drain: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	fmt.Printf("served %d predictions in %d micro-batches (mean fill %.2f), %d swaps\n",
		stats.Requests, stats.Batches, stats.MeanFill(), srv.Registry().Swaps())
}
