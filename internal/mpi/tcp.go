package mpi

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// This file is the TCP transport: length-prefixed binary framing over
// one socket per peer pair, with a rendezvous handshake that lets N
// independently launched processes assemble into one World. Each
// process calls DialTCP with its own rank and the full peer address
// table; the returned World hosts exactly that one rank, and
// World.Run executes the rank function once. See DESIGN.md §8 for the
// wire format and failure semantics.
//
// Rendezvous. Every process listens on its own address (Peers[Rank]).
// Rank i dials every rank j < i and accepts connections from every
// rank j > i, so each unordered pair shares exactly one connection,
// used bidirectionally. Dials retry until HandshakeTimeout because
// peers launch at different times. Both ends exchange a fixed hello
// frame (magic, version, world size, rank) and validate it before the
// connection joins the mesh.
//
// Framing. After the handshake, each message is one frame:
//
//	[4B little-endian tag][8B little-endian element count][count × 8B float64 bits]
//
// FIFO per connection plus one reader goroutine per peer gives
// per-(sender, receiver) ordered delivery — the property Comm needs to
// preserve MPI's non-overtaking guarantee per (source, tag).
//
// Failure semantics are fail-stop: an unexpected read/write error on
// any connection poisons the whole transport (pending and future
// operations return the error) rather than limping along with a
// partial world. A clean peer shutdown (EOF after Close on their side)
// is tolerated: already-received messages remain deliverable, and only
// a Recv that would block forever — every peer gone, inbox empty —
// reports ErrTransportClosed.

const (
	tcpMagic   uint32 = 0x52_50_4d_50 // "RPMP"
	tcpVersion uint32 = 1
	// tcpMaxElems caps a frame's element count (sanity bound against a
	// corrupted length prefix): 1<<28 float64s = 2 GiB.
	tcpMaxElems = 1 << 28
)

// TCPConfig configures one process's endpoint of a TCP world.
type TCPConfig struct {
	// Rank is the rank this process joins the world as.
	Rank int
	// Peers maps every rank to its listen address (host:port); the
	// world size is len(Peers). Peers[Rank] is this process's own
	// listen address.
	Peers []string
	// HandshakeTimeout bounds the whole rendezvous (listen, dial
	// retries, hello exchange). 0 means 30 seconds.
	HandshakeTimeout time.Duration
}

// DialTCP joins this process to a TCP world as cfg.Rank: it listens on
// its own address, dials every lower rank, accepts every higher one,
// and returns once the full mesh is connected. The returned World
// hosts exactly one rank; Run executes the rank function once, and
// collectives/point-to-point calls inside it transparently cross
// process boundaries. Callers must Close the world when done.
func DialTCP(cfg TCPConfig, opts ...Option) (*World, error) {
	tr, err := DialTCPTransport(cfg)
	if err != nil {
		return nil, err
	}
	return NewWorldOn(tr, opts...), nil
}

// DialTCPTransport performs DialTCP's rendezvous and returns the
// connected transport without a World around it, for NewWorldOn.
func DialTCPTransport(cfg TCPConfig) (Transport, error) {
	size := len(cfg.Peers)
	if size <= 0 {
		return nil, fmt.Errorf("mpi: DialTCP needs a non-empty peer table")
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("mpi: DialTCP rank %d out of range for %d peers", cfg.Rank, size)
	}
	tr, err := dialTCPTransport(cfg, mailboxCapacity(size))
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// ReserveLocalAddrs picks n distinct free TCP ports on 127.0.0.1 and
// returns them as host:port strings — the peer table for an
// all-localhost world (tests, cmd/mpirun). The ports are released
// before returning, so there is a small window in which another
// process could claim one; acceptable for a local launcher, not a
// general-purpose allocator.
func ReserveLocalAddrs(n int) ([]string, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: ReserveLocalAddrs of non-positive %d", n)
	}
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("mpi: reserving local port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// tcpPeer is one live connection to a remote rank.
type tcpPeer struct {
	conn net.Conn
	out  chan Message
}

// tcpTransport implements Transport for one process hosting one rank.
type tcpTransport struct {
	size, rank int
	inbox      chan Message
	peers      []*tcpPeer // indexed by rank; nil at rank (self)

	done      chan struct{} // closed by Close
	closeOnce sync.Once
	writerWg  sync.WaitGroup
	readerWg  sync.WaitGroup

	failOnce sync.Once
	failed   chan struct{} // closed on the first unexpected conn error
	failMu   sync.Mutex
	failErr  error

	peerMu    sync.Mutex
	peersGone int           // clean EOFs observed
	allGone   chan struct{} // closed when every peer has disconnected cleanly
}

// dialTCPTransport performs the rendezvous and starts the per-peer
// reader/writer goroutines.
func dialTCPTransport(cfg TCPConfig, capacity int) (*tcpTransport, error) {
	size, rank := len(cfg.Peers), cfg.Rank
	timeout := cfg.HandshakeTimeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	//repolint:allow detpath -- rendezvous deadline; handshake timing never reaches frames
	deadline := time.Now().Add(timeout)

	t := &tcpTransport{
		size:    size,
		rank:    rank,
		inbox:   make(chan Message, capacity),
		peers:   make([]*tcpPeer, size),
		done:    make(chan struct{}),
		failed:  make(chan struct{}),
		allGone: make(chan struct{}),
	}
	if size == 1 {
		return t, nil // a world of one needs no sockets
	}

	ln, err := net.Listen("tcp", cfg.Peers[rank])
	if err != nil {
		return nil, fmt.Errorf("mpi: rank %d listening on %s: %w", rank, cfg.Peers[rank], err)
	}
	defer ln.Close() // the mesh is complete (or failed) when we return

	conns := make([]net.Conn, size)
	teardown := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}

	// Accept from higher ranks while dialing lower ones.
	var acceptErr error
	acceptDone := make(chan struct{})
	expect := size - 1 - rank
	go func() {
		defer close(acceptDone)
		for got := 0; got < expect; got++ {
			if tl, ok := ln.(*net.TCPListener); ok {
				tl.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				acceptErr = fmt.Errorf("mpi: rank %d accepting peers (%d/%d connected): %w", rank, got, expect, err)
				return
			}
			peer, err := tcpAcceptHandshake(conn, size, rank, deadline)
			if err != nil {
				conn.Close()
				acceptErr = err
				return
			}
			if peer <= rank || peer >= size || conns[peer] != nil {
				conn.Close()
				acceptErr = fmt.Errorf("mpi: rank %d: unexpected or duplicate hello from rank %d", rank, peer)
				return
			}
			conns[peer] = conn
		}
	}()

	for j := 0; j < rank; j++ {
		conn, err := tcpDialHandshake(cfg.Peers[j], size, rank, j, deadline)
		if err != nil {
			ln.Close() // unblock the accept loop before reaping it
			<-acceptDone
			teardown()
			return nil, err
		}
		conns[j] = conn
	}
	<-acceptDone
	if acceptErr != nil {
		teardown()
		return nil, acceptErr
	}

	for r, conn := range conns {
		if conn == nil {
			continue
		}
		p := &tcpPeer{conn: conn, out: make(chan Message, capacity)}
		t.peers[r] = p
		t.writerWg.Add(1)
		t.readerWg.Add(1)
		go t.writer(p)
		go t.reader(p, r)
	}
	return t, nil
}

// tcpDialHandshake dials a lower-ranked peer, retrying until the
// deadline (peers launch at different times), and exchanges hellos.
func tcpDialHandshake(addr string, size, rank, peer int, deadline time.Time) (net.Conn, error) {
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = errors.New("handshake timeout")
			}
			return nil, fmt.Errorf("mpi: rank %d dialing rank %d at %s: %w", rank, peer, addr, lastErr)
		}
		dialTO := remain
		if dialTO > time.Second {
			dialTO = time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, dialTO)
		if err != nil {
			lastErr = err
			time.Sleep(50 * time.Millisecond)
			continue
		}
		if err := tcpExchangeHello(conn, size, rank, peer, deadline); err != nil {
			conn.Close()
			return nil, err
		}
		return conn, nil
	}
}

// tcpAcceptHandshake validates an inbound hello and answers with ours.
func tcpAcceptHandshake(conn net.Conn, size, rank int, deadline time.Time) (peer int, err error) {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	peer, err = tcpReadHello(conn, size)
	if err != nil {
		return 0, fmt.Errorf("mpi: rank %d handshake with %s: %w", rank, conn.RemoteAddr(), err)
	}
	if err := tcpWriteHello(conn, size, rank); err != nil {
		return 0, fmt.Errorf("mpi: rank %d handshake with rank %d: %w", rank, peer, err)
	}
	return peer, nil
}

// tcpExchangeHello is the dialer side: send ours, validate theirs.
func tcpExchangeHello(conn net.Conn, size, rank, wantPeer int, deadline time.Time) error {
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	if err := tcpWriteHello(conn, size, rank); err != nil {
		return fmt.Errorf("mpi: rank %d hello to rank %d: %w", rank, wantPeer, err)
	}
	peer, err := tcpReadHello(conn, size)
	if err != nil {
		return fmt.Errorf("mpi: rank %d hello from rank %d: %w", rank, wantPeer, err)
	}
	if peer != wantPeer {
		return fmt.Errorf("mpi: rank %d dialed rank %d but reached rank %d (stale peer table?)", rank, wantPeer, peer)
	}
	return nil
}

// tcpWriteHello emits the 16-byte hello frame.
func tcpWriteHello(conn net.Conn, size, rank int) error {
	var b [16]byte
	binary.LittleEndian.PutUint32(b[0:4], tcpMagic)
	binary.LittleEndian.PutUint32(b[4:8], tcpVersion)
	binary.LittleEndian.PutUint32(b[8:12], uint32(size))
	binary.LittleEndian.PutUint32(b[12:16], uint32(rank))
	_, err := conn.Write(b[:])
	return err
}

// tcpReadHello parses and validates a hello frame.
func tcpReadHello(conn net.Conn, size int) (rank int, err error) {
	var b [16]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return 0, err
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != tcpMagic {
		return 0, fmt.Errorf("bad magic %#x (not an mpi peer?)", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != tcpVersion {
		return 0, fmt.Errorf("protocol version %d, want %d", v, tcpVersion)
	}
	if s := binary.LittleEndian.Uint32(b[8:12]); int(s) != size {
		return 0, fmt.Errorf("peer believes world size is %d, ours is %d", s, size)
	}
	r := binary.LittleEndian.Uint32(b[12:16])
	if int(r) >= size {
		return 0, fmt.Errorf("peer rank %d out of range for size %d", r, size)
	}
	return int(r), nil
}

// fail poisons the transport with the first unexpected error.
func (t *tcpTransport) fail(err error) {
	t.failOnce.Do(func() {
		t.failMu.Lock()
		t.failErr = err
		t.failMu.Unlock()
		close(t.failed)
	})
}

// failure returns the recorded poison error.
func (t *tcpTransport) failure() error {
	t.failMu.Lock()
	defer t.failMu.Unlock()
	if t.failErr != nil {
		return t.failErr
	}
	return errors.New("mpi: tcp transport failed")
}

// peerGone records one clean peer disconnect.
func (t *tcpTransport) peerGone() {
	t.peerMu.Lock()
	t.peersGone++
	gone := t.peersGone
	t.peerMu.Unlock()
	if gone == t.size-1 {
		close(t.allGone)
	}
}

// writer drains one peer's outbound queue onto its socket, flushing
// whenever the queue runs dry. On Close it finishes the queued
// backlog, flushes, and half-closes the connection so the peer's
// reader sees a clean EOF — the drain half of close/drain.
func (t *tcpTransport) writer(p *tcpPeer) {
	defer t.writerWg.Done()
	bw := bufio.NewWriterSize(p.conn, 1<<16)
	for {
		select {
		case m := <-p.out:
			if err := tcpWriteFrame(bw, m.Tag, m.Data); err != nil {
				t.fail(fmt.Errorf("mpi: rank %d writing to peer: %w", t.rank, err))
				return
			}
			if len(p.out) == 0 {
				if err := bw.Flush(); err != nil {
					t.fail(fmt.Errorf("mpi: rank %d flushing to peer: %w", t.rank, err))
					return
				}
			}
		case <-t.done:
			// Drain is best-effort and bounded: if the peer has stopped
			// reading (its own Close raced ours), an unbounded flush
			// would park this goroutine in conn.Write forever and
			// deadlock Close on writerWg.Wait. The write deadline
			// converts that into a timed-out, abandoned backlog.
			//repolint:allow detpath -- drain deadline bounds Close, after all frames are done
			p.conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			for {
				select {
				case m := <-p.out:
					if err := tcpWriteFrame(bw, m.Tag, m.Data); err != nil {
						return
					}
				default:
					bw.Flush()
					if tc, ok := p.conn.(*net.TCPConn); ok {
						tc.CloseWrite()
					}
					return
				}
			}
		}
	}
}

// reader pumps one peer's inbound frames into the local inbox. A clean
// EOF (peer closed) stops the reader without poisoning the transport;
// any other error is fail-stop.
func (t *tcpTransport) reader(p *tcpPeer, from int) {
	defer t.readerWg.Done()
	br := bufio.NewReaderSize(p.conn, 1<<16)
	for {
		tag, data, err := tcpReadFrame(br)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			if errors.Is(err, io.EOF) {
				t.peerGone()
				return
			}
			t.fail(fmt.Errorf("mpi: rank %d reading from rank %d: %w", t.rank, from, err))
			return
		}
		select {
		case t.inbox <- Message{From: from, Tag: tag, Data: data}:
		case <-t.done:
			return
		}
	}
}

// tcpWriteFrame emits one [tag][count][payload] frame.
func tcpWriteFrame(bw *bufio.Writer, tag int, data []float64) error {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(tag))
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(data)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var b [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// tcpReadFrame parses one frame, in bounded chunks so multi-MB
// payloads need no frame-sized byte buffer.
func tcpReadFrame(br *bufio.Reader) (tag int, data []float64, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, err
	}
	tag = int(binary.LittleEndian.Uint32(hdr[0:4]))
	n := binary.LittleEndian.Uint64(hdr[4:12])
	if n > tcpMaxElems {
		return 0, nil, fmt.Errorf("frame of %d elements exceeds the %d sanity bound (corrupt stream?)", n, tcpMaxElems)
	}
	if n == 0 {
		return tag, nil, nil
	}
	// Grow the slice as payload actually arrives instead of trusting
	// the header with one n-sized make: a corrupt length field on a
	// short stream then fails with a read error after at most one
	// chunk, not a multi-GiB allocation (FuzzTCPReadFrameHostile).
	const chunkElems = 8192
	var chunk [8 * chunkElems]byte
	data = make([]float64, 0, min(n, chunkElems))
	for uint64(len(data)) < n {
		m := int(n - uint64(len(data)))
		if m > chunkElems {
			m = chunkElems
		}
		if _, err := io.ReadFull(br, chunk[:8*m]); err != nil {
			return 0, nil, err
		}
		for i := 0; i < m; i++ {
			data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(chunk[8*i:8*i+8])))
		}
	}
	return tag, data, nil
}

// Size implements Transport.
func (t *tcpTransport) Size() int { return t.size }

// Local implements Transport: one rank per process.
func (t *tcpTransport) Local() []int { return []int{t.rank} }

// Send implements Transport. Self-sends short-circuit through the
// inbox; everything else enqueues on the peer's outbound queue, which
// the writer goroutine drains — so a send never blocks on the wire,
// only on a full queue.
func (t *tcpTransport) Send(from, to, tag int, data []float64) error {
	if from != t.rank {
		return fmt.Errorf("mpi: tcp endpoint of rank %d cannot send as rank %d", t.rank, from)
	}
	if to < 0 || to >= t.size {
		return fmt.Errorf("mpi: send to invalid rank %d (size %d)", to, t.size)
	}
	m := Message{From: from, Tag: tag, Data: data}
	if to == t.rank {
		select {
		case t.inbox <- m:
			return nil
		case <-t.done:
			return ErrTransportClosed
		}
	}
	select {
	case t.peers[to].out <- m:
		return nil
	case <-t.done:
		return ErrTransportClosed
	case <-t.failed:
		return t.failure()
	}
}

// Recv implements Transport: queued messages are always delivered
// before a close, failure, or all-peers-gone condition is reported.
func (t *tcpTransport) Recv(rank int) (Message, error) {
	if rank != t.rank {
		return Message{}, fmt.Errorf("mpi: tcp endpoint of rank %d cannot receive for rank %d", t.rank, rank)
	}
	select {
	case m := <-t.inbox:
		return m, nil
	default:
	}
	select {
	case m := <-t.inbox:
		return m, nil
	case <-t.done:
		return Message{}, ErrTransportClosed
	case <-t.failed:
		return Message{}, t.failure()
	case <-t.allGone:
		// Every peer disconnected cleanly and nothing is queued: this
		// receive would block forever.
		select {
		case m := <-t.inbox:
			return m, nil
		default:
			return Message{}, fmt.Errorf("mpi: rank %d: all peers disconnected: %w", t.rank, ErrTransportClosed)
		}
	}
}

// Close implements Transport: flush queued outbound frames (writers
// drain, flush, and FIN their write side), then close the sockets —
// which also unblocks readers parked in a kernel read — and reap every
// goroutine. Idempotent.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		t.writerWg.Wait()
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		t.readerWg.Wait()
	})
	return nil
}
