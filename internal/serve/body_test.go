package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadBodySizeHint: the declared size only pre-sizes the slab. A
// missing, short, exact, long or absurd hint all read the same bytes,
// and a hint alone never allocates beyond maxPooledBody.
func TestReadBodySizeHint(t *testing.T) {
	want := strings.Repeat("0123456789abcdef", 4096) // 64 KiB, several reads
	for _, hint := range []int64{-1, 0, 100, int64(len(want)) - 1, int64(len(want)), int64(len(want)) + 1000, 1 << 40} {
		for name, r := range map[string]io.Reader{
			"whole reads":    strings.NewReader(want),
			"one-byte reads": iotest.OneByteReader(strings.NewReader(want)),
		} {
			b, err := ReadBody(r, hint)
			if err != nil {
				t.Fatalf("hint %d, %s: %v", hint, name, err)
			}
			if string(b.B) != want {
				t.Errorf("hint %d, %s: read %d bytes that differ from the source", hint, name, len(b.B))
			}
			if cap(b.B) > maxPooledBody+1 {
				t.Errorf("hint %d, %s: slab of %d bytes allocated on the header's word", hint, name, cap(b.B))
			}
			b.Release()
		}
	}
	boom := errors.New("boom")
	if _, err := ReadBody(io.MultiReader(strings.NewReader("partial"), iotest.ErrReader(boom)), 7); !errors.Is(err, boom) {
		t.Errorf("read error came back as %v", err)
	}
}

// TestBodyOutlivesRelease: a reader handed to the transport keeps the
// slab out of the pool after the creator has released it — net/http
// may still be writing the request body when Do returns — and every
// reader (GetBody rewinds included) is a full, independent pass.
func TestBodyOutlivesRelease(t *testing.T) {
	b := NewBody(16)
	b.B = append(b.B, "replay me"...)
	req, err := b.NewRequest(context.Background(), http.MethodPost, "http://replica.invalid/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	if req.ContentLength != 9 {
		t.Errorf("ContentLength %d, want 9", req.ContentLength)
	}
	rewound, err := req.GetBody()
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if n := b.refs.Load(); n != 2 {
		t.Fatalf("after the creator's release %d references are held, want the two readers'", n)
	}
	for _, r := range []io.ReadCloser{req.Body, rewound} {
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, []byte("replay me")) {
			t.Errorf("reader after release read %q, %v", got, err)
		}
		r.Close()
		r.Close() // the transport may close twice; the reference drops once
	}
	if n := b.refs.Load(); n != 0 {
		t.Errorf("%d references left after every reader closed", n)
	}

	empty := NewBody(0)
	defer empty.Release()
	req, err = empty.NewRequest(context.Background(), http.MethodGet, "http://replica.invalid/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if req.Body != nil || req.ContentLength != 0 {
		t.Errorf("empty body sent as Body=%v ContentLength=%d, want none", req.Body, req.ContentLength)
	}
}

// TestSlabCapOneClass: the slabs one 4×128×128 predict asks for (the
// request as declared, at the router and at the replica; the encoder's
// worst-case hint; the response as declared) are one size, so whichever
// the pool hands back fits the next asker; rounding never doubles, and
// what is too large to pool is cut to measure.
func TestSlabCapOneClass(t *testing.T) {
	asks := []int{1258971 + 1, jsonSizeHint(4 * 128 * 128), 1312971 + 1}
	for _, n := range asks {
		if got, want := slabCap(n), slabCap(asks[0]); got != want {
			t.Errorf("slabCap(%d) = %d, want the %d every other slab of the request has", n, got, want)
		}
	}
	for _, n := range []int{1, 2, 3, 512, 513, 1 << 20, 1<<20 + 1, maxPooledBody - 1, maxPooledBody} {
		if c := slabCap(n); c < n || c >= 2*n || c&(c-1) != 0 {
			t.Errorf("slabCap(%d) = %d, want the next power of two", n, c)
		}
	}
	if c := slabCap(maxPooledBody + 1); c != maxPooledBody+1 {
		t.Errorf("slabCap above the pooled bound = %d, want exactly what was asked", c)
	}
}
