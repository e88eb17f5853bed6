package mpi

import (
	"bufio"
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// dialTestWorlds assembles an n-rank TCP world whose ranks all live in
// this test process: n DialTCP endpoints over reserved localhost
// ports. The returned worlds are indexed by rank.
func dialTestWorlds(t testing.TB, n int, opts ...Option) []*World {
	t.Helper()
	addrs, err := ReserveLocalAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	worlds := make([]*World, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = DialTCP(TCPConfig{Rank: r, Peers: addrs, HandshakeTimeout: 20 * time.Second}, opts...)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, w := range worlds {
			if w != nil {
				w.Close()
			}
		}
	})
	return worlds
}

// runTCP drives every rank's world concurrently with the same rank
// function, mirroring the single Run call of an in-process world.
func runTCP(t testing.TB, worlds []*World, f func(c *Comm)) {
	t.Helper()
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func(r int, w *World) {
			defer wg.Done()
			errs[r] = w.Run(f)
		}(r, w)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// TestTCPFrameRoundTrip checks the wire framing in isolation: empty,
// 1-element, and multi-MB payloads (a 512x512 tensor round-tripped
// through internal/tensor's serialization layout) survive
// encode/decode bit for bit, including NaN payloads and signed zeros.
func TestTCPFrameRoundTrip(t *testing.T) {
	big := tensor.Normal(tensor.NewRNG(7), 0, 1, 1, 4, 512, 512) // 8 MB of floats
	payloads := [][]float64{
		nil,
		{},
		{42.5},
		{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)},
		big.Data(),
	}
	for i, data := range payloads {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		tag := 100 + i
		if err := tcpWriteFrame(bw, tag, data); err != nil {
			t.Fatalf("payload %d: write: %v", i, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		gotTag, got, err := tcpReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("payload %d: read: %v", i, err)
		}
		if gotTag != tag {
			t.Fatalf("payload %d: tag %d, want %d", i, gotTag, tag)
		}
		if len(got) != len(data) {
			t.Fatalf("payload %d: %d elements, want %d", i, len(got), len(data))
		}
		for j := range data {
			if math.Float64bits(got[j]) != math.Float64bits(data[j]) {
				t.Fatalf("payload %d: element %d = %x, want %x", i, j, math.Float64bits(got[j]), math.Float64bits(data[j]))
			}
		}
	}
	// The multi-MB tensor reconstructs exactly through FromSlice, the
	// same path halo payloads take.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := tcpWriteFrame(bw, 1, big.Data()); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	_, data, err := tcpReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.FromSlice(data, big.Shape()...)
	if !got.Equal(big) {
		t.Fatal("multi-MB tensor payload not bit-identical after framing round trip")
	}
	// Composition with the checkpoint layer (internal/tensor's gob
	// serialization): a tensor that crossed the wire must survive
	// GobEncode/GobDecode unchanged — the store-after-receive path of a
	// distributed job writing checkpoints.
	blob, err := got.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var reloaded tensor.Tensor
	if err := reloaded.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if !reloaded.Equal(big) {
		t.Fatal("framed tensor not bit-identical after the gob checkpoint round trip")
	}
}

// TestTCPFrameSanityBound rejects a corrupt length prefix instead of
// allocating it.
func TestTCPFrameSanityBound(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 12)
	hdr[4] = 0xff // little-endian count ≈ 2^56
	hdr[11] = 0xff
	buf.Write(hdr)
	if _, _, err := tcpReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestTCPSendRecvPayloadSizes round-trips the same payload spectrum
// through real sockets: rank 0 -> rank 1, bit-identity asserted on the
// far side.
func TestTCPSendRecvPayloadSizes(t *testing.T) {
	worlds := dialTestWorlds(t, 2)
	big := tensor.Normal(tensor.NewRNG(3), 0, 1, 1, 4, 256, 256)
	payloads := [][]float64{{}, {1.25}, big.Data()}
	runTCP(t, worlds, func(c *Comm) {
		if c.Rank() == 0 {
			for i, p := range payloads {
				c.Send(1, i, p)
			}
			return
		}
		for i, p := range payloads {
			got := c.Recv(0, i)
			if len(got) != len(p) {
				t.Errorf("payload %d: %d elements, want %d", i, len(got), len(p))
				return
			}
			for j := range p {
				if math.Float64bits(got[j]) != math.Float64bits(p[j]) {
					t.Errorf("payload %d: element %d differs", i, j)
					return
				}
			}
		}
	})
}

// TestTCPNonOvertakingProperty is the property test for MPI's ordering
// guarantee on the TCP transport: for every (source, tag) pair,
// messages are received in the order they were sent, even when many
// sources and tags interleave and the receiver matches tags in a
// deliberately scrambled order. Each message carries (sequence) and
// the receiver checks per-(source, tag) monotonicity.
func TestTCPNonOvertakingProperty(t *testing.T) {
	const (
		ranks   = 4
		tags    = 3
		perTag  = 25
		recvr   = 0
		senders = ranks - 1
	)
	worlds := dialTestWorlds(t, ranks)
	rng := tensor.NewRNG(11)
	// A deterministic scrambled matching order shared by all ranks:
	// the receiver pulls (source, tag) pairs in this order, so late
	// matches force earlier arrivals through the pending queue.
	type key struct{ src, tag int }
	var order []key
	for src := 1; src < ranks; src++ {
		for tag := 0; tag < tags; tag++ {
			for i := 0; i < perTag; i++ {
				order = append(order, key{src, tag})
			}
		}
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(rng.Float64() * float64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	runTCP(t, worlds, func(c *Comm) {
		if c.Rank() != recvr {
			// Sender: interleave tags pseudo-randomly, payload carries
			// the per-tag sequence number plus size-varying filler.
			seq := make([]int, tags)
			lrng := tensor.NewRNG(int64(100 + c.Rank()))
			for sent := 0; sent < tags*perTag; {
				tag := int(lrng.Float64() * tags)
				if seq[tag] >= perTag {
					continue
				}
				payload := make([]float64, 1+int(lrng.Float64()*64))
				payload[0] = float64(seq[tag])
				c.Send(recvr, tag, payload)
				seq[tag]++
				sent++
			}
			return
		}
		next := make(map[key]int)
		for _, k := range order {
			data := c.Recv(k.src, k.tag)
			if len(data) == 0 {
				t.Errorf("empty payload from %d tag %d", k.src, k.tag)
				return
			}
			if got, want := int(data[0]), next[k]; got != want {
				t.Errorf("overtaking: source %d tag %d delivered seq %d, want %d", k.src, k.tag, got, want)
				return
			}
			next[k]++
		}
		// Wildcard drain sanity: nothing should remain.
		if c.Probe(AnySource, AnyTag) {
			t.Error("unexpected extra message queued")
		}
	})
}

// TestTCPCollectives runs the full collective suite over real sockets:
// the same algorithms (trees, rings, recursive doubling) that the
// in-process tests exercise must work unchanged when every rank is a
// separate endpoint.
func TestTCPCollectives(t *testing.T) {
	const size = 5
	worlds := dialTestWorlds(t, size)
	runTCP(t, worlds, func(c *Comm) {
		r := float64(c.Rank())
		c.Barrier()
		if sum := c.AllreduceScalar(r, OpSum); sum != 10 {
			t.Errorf("allreduce = %g, want 10", sum)
		}
		got := c.Bcast(2, []float64{3.5})
		if got[0] != 3.5 {
			t.Errorf("bcast = %v", got)
		}
		all := c.Allgather([]float64{r})
		for i := range all {
			if all[i][0] != float64(i) {
				t.Errorf("allgather[%d] = %v", i, all[i])
			}
		}
		ring := c.RingAllreduce([]float64{r, 2 * r}, OpSum)
		if ring[0] != 10 || ring[1] != 20 {
			t.Errorf("ring allreduce = %v", ring)
		}
		pieces := c.Gather(0, []float64{r})
		if c.Rank() == 0 {
			for i := range pieces {
				if pieces[i][0] != float64(i) {
					t.Errorf("gather[%d] = %v", i, pieces[i])
				}
			}
		}
	})
}

// TestTCPStatsMatchMem sends the identical traffic pattern over both
// transports and asserts the CommStats agree exactly: the accounting
// lives above the transport, so the wire must not leak into the
// numbers.
func TestTCPStatsMatchMem(t *testing.T) {
	const size = 3
	pattern := func(c *Comm) {
		r := c.Rank()
		c.Send((r+1)%size, 7, make([]float64, 10+r))
		c.Recv((r-1+size)%size, 7)
		c.Barrier()
		c.Allreduce([]float64{float64(r), 1}, OpSum)
	}
	mem := NewWorld(size, WithNetModel(ClusterEthernet()))
	if err := mem.Run(pattern); err != nil {
		t.Fatal(err)
	}
	worlds := dialTestWorlds(t, size, WithNetModel(ClusterEthernet()))
	runTCP(t, worlds, pattern)
	for r := 0; r < size; r++ {
		memStats := mem.stats[r]
		tcpStats := worlds[r].stats[r]
		if memStats != tcpStats {
			t.Errorf("rank %d stats differ:\n  mem: %v\n  tcp: %v", r, memStats, tcpStats)
		}
	}
}

// TestDialTCPValidation covers the config error paths.
func TestDialTCPValidation(t *testing.T) {
	if _, err := DialTCP(TCPConfig{Rank: 0, Peers: nil}); err == nil {
		t.Fatal("empty peer table accepted")
	}
	if _, err := DialTCP(TCPConfig{Rank: 2, Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	// A lone rank needs no sockets at all.
	w, err := DialTCP(TCPConfig{Rank: 0, Peers: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Distributed() {
		t.Fatal("single-rank world claims to be distributed")
	}
	if err := w.Run(func(c *Comm) {
		c.Send(0, 1, []float64{4})
		if got := c.Recv(0, 1); got[0] != 4 {
			t.Errorf("self-send = %v", got)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDialTCPHandshakeTimeout: a process whose peers never show up
// must fail with a timeout instead of hanging.
func TestDialTCPHandshakeTimeout(t *testing.T) {
	addrs, err := ReserveLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = DialTCP(TCPConfig{Rank: 1, Peers: addrs, HandshakeTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("handshake succeeded with no peer")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

// TestTCPWorldSizeMismatch: peers that disagree on the world size must
// refuse each other during the handshake.
func TestTCPWorldSizeMismatch(t *testing.T) {
	addrs, err := ReserveLocalAddrs(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		w, err := DialTCP(TCPConfig{Rank: 0, Peers: addrs[:2], HandshakeTimeout: 2 * time.Second})
		if w != nil {
			w.Close()
		}
		errs[0] = err
	}()
	go func() {
		defer wg.Done()
		// Same addresses for ranks 0 and 1, but a 3-rank view: rank 1
		// dials rank 0 and must be rejected (or time out waiting for
		// the third peer).
		w, err := DialTCP(TCPConfig{Rank: 1, Peers: addrs, HandshakeTimeout: 2 * time.Second})
		if w != nil {
			w.Close()
		}
		errs[1] = err
	}()
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("mismatched world sizes both handshook successfully")
	}
}

// TestTCPManyWorldsSequential exercises rendezvous robustness: several
// consecutive small worlds on freshly reserved ports, ensuring Close
// fully releases resources between rounds.
func TestTCPManyWorldsSequential(t *testing.T) {
	for round := 0; round < 3; round++ {
		worlds := dialTestWorlds(t, 3)
		runTCP(t, worlds, func(c *Comm) {
			if got := c.AllreduceScalar(1, OpSum); got != 3 {
				t.Errorf("round %d: allreduce = %g", round, got)
			}
		})
		for _, w := range worlds {
			if err := w.Close(); err != nil {
				t.Fatalf("round %d: close: %v", round, err)
			}
		}
	}
}
