// Command mpirun is the local multi-process rank launcher: it starts N
// copies of a command, wiring each one into a TCP mpi world
// (DESIGN.md §8) by appending the flags the serving commands
// understand:
//
//	-transport tcp -rank <i> -peers <addr0,addr1,...>
//
// Free localhost ports are reserved up front, so the same invocation
// that runs one process runs N real OS processes exchanging halos over
// sockets — the Fig. 4 strong-scaling experiment as an actual
// multi-process job:
//
//	mpirun -n 4 -- ./train -data data.gob -ranks 4 -concurrent -out ckpt
//	mpirun -n 4 -- ./infer -data data.gob -ckpt ckpt -steps 10
//
// Child stdout/stderr lines are prefixed with their rank. If any rank
// exits non-zero (or the launcher receives Ctrl-C), the remaining
// ranks are killed — the fail-stop contract the TCP transport assumes.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"

	"repro/internal/mpi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpirun: ")

	var (
		n     = flag.Int("n", 4, "number of ranks (one OS process each)")
		host  = flag.String("host", "", "advertise this host instead of 127.0.0.1 (ports are still reserved locally)")
		quiet = flag.Bool("quiet", false, "suppress the launch banner")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mpirun [-n N] -- command [args...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	argv := flag.Args()
	if len(argv) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *n <= 0 {
		log.Fatalf("invalid rank count %d", *n)
	}

	addrs, err := mpi.ReserveLocalAddrs(*n)
	if err != nil {
		log.Fatal(err)
	}
	if *host != "" {
		for i, a := range addrs {
			_, port, ok := strings.Cut(a, ":")
			if !ok {
				log.Fatalf("unparseable reserved address %q", a)
			}
			addrs[i] = *host + ":" + port
		}
	}
	peers := strings.Join(addrs, ",")
	if !*quiet {
		log.Printf("launching %d ranks of %s over tcp (%s)", *n, argv[0], peers)
	}

	// Ctrl-C (or any child failure, via cancel) tears the whole job
	// down; children also get the signal directly and may exit cleanly
	// first.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithCancel(sigCtx)
	defer cancel()

	var mu sync.Mutex // serializes output lines across ranks
	prefixPipe := func(rank int, r io.Reader, w io.Writer, wg *sync.WaitGroup) {
		defer wg.Done()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			mu.Lock()
			fmt.Fprintf(w, "[rank %d] %s\n", rank, sc.Text())
			mu.Unlock()
		}
	}

	errs := make([]error, *n)
	var wg sync.WaitGroup
	for r := 0; r < *n; r++ {
		args := append(append([]string(nil), argv[1:]...),
			"-transport", "tcp", "-rank", strconv.Itoa(r), "-peers", peers)
		cmd := exec.CommandContext(ctx, argv[0], args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			log.Fatal(err)
		}
		stderr, err := cmd.StderrPipe()
		if err != nil {
			log.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			cancel()
			log.Fatalf("rank %d: %v", r, err)
		}
		var pipes sync.WaitGroup
		pipes.Add(2)
		go prefixPipe(r, stdout, os.Stdout, &pipes)
		go prefixPipe(r, stderr, os.Stderr, &pipes)
		wg.Add(1)
		go func(r int, cmd *exec.Cmd, pipes *sync.WaitGroup) {
			defer wg.Done()
			pipes.Wait()
			if err := cmd.Wait(); err != nil {
				errs[r] = err
				cancel() // fail-stop: take the rest of the job down
			}
		}(r, cmd, &pipes)
	}
	wg.Wait()

	code := 0
	for r, err := range errs {
		if err != nil {
			log.Printf("rank %d: %v", r, err)
			code = 1
		}
	}
	if code == 0 && sigCtx.Err() != nil {
		// Every child exited cleanly, but only because the job was
		// interrupted — don't let callers mistake that for success.
		code = 130
	}
	os.Exit(code)
}
