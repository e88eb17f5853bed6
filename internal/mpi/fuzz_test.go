package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// bytesToFloats reinterprets raw as little-endian float64s, one per
// full 8-byte chunk, so the fuzzer mutates payload bit patterns
// (including NaNs, infinities, and subnormals) directly.
func bytesToFloats(raw []byte) []float64 {
	data := make([]float64, 0, len(raw)/8)
	for len(raw) >= 8 {
		data = append(data, math.Float64frombits(binary.LittleEndian.Uint64(raw[:8])))
		raw = raw[8:]
	}
	return data
}

// FuzzTCPFrameRoundTrip checks the wire codec is lossless: any frame
// tcpWriteFrame emits, tcpReadFrame must parse back bit-for-bit —
// NaN payloads included, which is why the comparison is on
// Float64bits, not ==.
func FuzzTCPFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(7), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint32(1<<31), bytes.Repeat([]byte{0xff}, 64)) // all-ones bits: NaN payload
	f.Fuzz(func(t *testing.T, tag uint32, raw []byte) {
		data := bytesToFloats(raw)
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := tcpWriteFrame(bw, int(tag), data); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		gotTag, got, err := tcpReadFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("read back own frame: %v", err)
		}
		if gotTag != int(tag) {
			t.Fatalf("tag: got %d, want %d", gotTag, tag)
		}
		if len(got) != len(data) {
			t.Fatalf("len: got %d, want %d", len(got), len(data))
		}
		for i := range data {
			if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
				t.Fatalf("elem %d: got %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(data[i]))
			}
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes left unconsumed after the frame", buf.Len())
		}
	})
}

// FuzzTCPReadFrameHostile feeds arbitrary bytes to the frame parser:
// it must never panic and never trust a corrupt length header with a
// huge allocation — it either parses a frame that re-encodes to the
// bytes it consumed, or returns an error.
func FuzzTCPReadFrameHostile(f *testing.F) {
	valid := func(tag uint32, payload []float64) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := tcpWriteFrame(bw, int(tag), payload); err != nil {
			f.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(3, []float64{1.5, -2.25}))
	f.Add(valid(3, []float64{1.5, -2.25})[:14]) // truncated payload
	f.Add([]byte{1, 2, 3})                      // truncated header
	huge := make([]byte, 12)
	binary.LittleEndian.PutUint64(huge[4:12], 1<<40) // count over the sanity bound
	f.Add(huge)
	under := make([]byte, 12)
	binary.LittleEndian.PutUint64(under[4:12], tcpMaxElems) // in-bound count, empty stream
	f.Add(under)
	f.Fuzz(func(t *testing.T, raw []byte) {
		tag, data, err := tcpReadFrame(bufio.NewReader(bytes.NewReader(raw)))
		if err != nil {
			return
		}
		// Successful parse: re-encoding must reproduce the consumed
		// prefix exactly.
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := tcpWriteFrame(bw, tag, data); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), raw[:buf.Len()]) {
			t.Fatalf("re-encoded frame differs from consumed bytes")
		}
	})
}
