package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
)

// maxPooledBody bounds both what a Content-Length header alone can make
// ReadBody allocate (the slab grows past it only as bytes actually
// arrive) and what Release returns to the pool: a slab that grew beyond
// it is left to the collector, so one huge request cannot pin its
// buffer for the life of the process. 16 MiB covers a 4×256×256 frame
// in JSON several times over.
const maxPooledBody = 16 << 20

// Body is a whole request or response body in one pooled byte slab
// (DESIGN.md §9): the unit serve and the router read, replay and write
// HTTP bodies in, in place of io.ReadAll's grow-and-copy chain. It is
// reference counted, because net/http's transport may still be reading
// a request body on its write goroutine after Do has returned (an early
// 429, a dead connection): the creator holds one reference, every
// reader handed to the transport holds one until the transport closes
// it, and the slab goes back to the pool only when the last is dropped.
type Body struct {
	B    []byte
	refs atomic.Int32
}

var bodyPool = sync.Pool{New: func() any { return new(Body) }}

// slabCap rounds a wanted capacity up to a power of two. One request
// asks the pool for several slabs of nearly one size (the body as
// declared, the same body at the replica, the encoder's worst case, the
// response as declared); rounded, they are one size and whichever the
// pool hands back serves any asker. Cut to measure, a slab would be
// too small for the next larger asker and be thrown away for a new
// one, in an order that depends on the scheduler.
func slabCap(n int) int {
	if n > maxPooledBody {
		return n // never pooled; nothing to match
	}
	return 1 << bits.Len(uint(n-1))
}

// NewBody returns an empty Body whose slab holds at least n bytes
// without growing. The caller owns one reference.
func NewBody(n int) *Body {
	b := bodyPool.Get().(*Body)
	if cap(b.B) < n {
		b.B = make([]byte, 0, slabCap(n))
	}
	b.B = b.B[:0]
	b.refs.Store(1)
	return b
}

// Release drops one reference; the last one recycles the slab. The
// bytes must not be touched afterwards.
func (b *Body) Release() {
	if b.refs.Add(-1) != 0 {
		return
	}
	if cap(b.B) > maxPooledBody {
		b.B = nil
	}
	bodyPool.Put(b)
}

// ReadBody reads r to EOF into a pooled slab. size is the declared
// length (Content-Length) or negative when unknown; it only pre-sizes
// the slab, so a wrong or hostile value costs at most maxPooledBody
// up front and never truncates. Limits stay with the caller's reader
// (http.MaxBytesReader, io.LimitReader); on error nothing is retained.
func ReadBody(r io.Reader, size int64) (*Body, error) {
	const minRead = 512
	n := minRead
	if size >= 0 {
		// One spare byte lets the Read that reports EOF fit without
		// growing a slab that was sized exactly.
		n = int(min(size, maxPooledBody-1)) + 1
	}
	b := NewBody(n)
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		m, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+m]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return b, nil
			}
			b.Release()
			return nil, err
		}
	}
}

// NewRequest builds an outgoing request whose body is b's bytes, with
// Content-Length and a rewindable GetBody as http.NewRequest gives a
// *bytes.Reader. Each reader takes a reference on b, so the caller may
// Release its own as soon as Do returns and send b again in between.
func (b *Body) NewRequest(ctx context.Context, method, url string) (*http.Request, error) {
	if len(b.B) == 0 {
		return http.NewRequestWithContext(ctx, method, url, nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, b.reader())
	if err != nil {
		return nil, err
	}
	req.ContentLength = int64(len(b.B))
	req.GetBody = func() (io.ReadCloser, error) { return b.reader(), nil }
	return req, nil
}

// bodyReader is one pass over a Body; Close drops its reference once.
type bodyReader struct {
	bytes.Reader
	b      *Body
	closed atomic.Bool
}

func (b *Body) reader() *bodyReader {
	b.refs.Add(1)
	r := &bodyReader{b: b}
	r.Reset(b.B)
	return r
}

func (r *bodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.b.Release()
	}
	return nil
}
