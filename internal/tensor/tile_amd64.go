//go:build amd64

package tensor

// The AVX-512 register-tile sweeps behind ShiftedNN (both widths) and
// ShiftedNT (float64); the kernels are in tile_amd64.s. Where they do
// not apply — no AVX-512, another element type, an empty reduction —
// shiftedNNTiled/shiftedNTTiled return false and the sweeps of gemm.go
// run on the axpy4/dot2 kernels instead. The choice depends on the CPU
// and the element type only.

//go:noescape
func nnTileF64(c *float64, ldc int, a *float64, lda int, b *float64, offs *int, k int, mask uint64, rows int, acc bool)

//go:noescape
func nnTileF32(c *float32, ldc int, a *float32, lda int, b *float32, offs *int, k int, mask uint64, rows int, acc bool)

//go:noescape
func ntTileF64(a *float64, rows *[4]int, b *float64, taps *[4]int, k int, out *[32]float64)

// nnTapTable is the capacity of the NN sweep's tap-offset table, which
// lives on the stack. Longer reductions run in chunks of this many
// taps; each chunk hands C to the next through memory, so every element
// is still one FMA chain in tap order.
const nnTapTable = 512

// nnLanes returns the column width of T's NN tile — four zmm vectors,
// 32 float64 or 64 float32 lanes — or 0 where T has no tile kernel.
func nnLanes[T Float]() int {
	if !useAVX512 {
		return 0
	}
	var z T
	switch any(z).(type) {
	case float64:
		return 32
	case float32:
		return 64
	}
	return 0
}

// shiftedNNTiled runs ShiftedNN on the register tiles and reports
// whether it did.
func shiftedNNTiled[T Float](m, n int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool) bool {
	lanes := nnLanes[T]()
	if lanes == 0 || tp.rows() == 0 {
		return false
	}
	nnTiles(lanes, m, n, a, lda, b, tp, c, ldc, acc)
	return true
}

// nnTiles sweeps the n columns of the NN product: column tiles of
// lanes on the outside, blocks of four C rows on the inside (two, then
// one, for the remainder), so a tile's window of B stays in L1 across
// every row block. The last tile masks its missing lanes. Every tap is
// multiplied: unlike the axpy4 sweep there is no skip of all-zero
// coefficients. That is safe because each B value read is band data or
// its zero padding and masked-off lanes are never read, so a zero
// coefficient adds a zero.
func nnTiles[T Float](lanes, m, n int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool) {
	var offs [nnTapTable]int
	walk := tapWalk{Taps: tp}
	k := tp.rows()
	for p0 := 0; p0 < k; p0 += nnTapTable {
		kc := min(nnTapTable, k-p0)
		for q := range kc {
			offs[q] = walk.next()
		}
		onto := acc || p0 > 0
		for j := 0; j < n; j += lanes {
			mask := ^uint64(0) >> (64 - min(lanes, n-j))
			for i := 0; i < m; {
				rows := min(4, m-i)
				if rows == 3 {
					rows = 2
				}
				nnTile(&c[i*ldc+j], ldc, &a[i*lda+p0], lda, &b[j], &offs[0], kc, mask, rows, onto)
				i += rows
			}
		}
	}
}

// nnTile calls the NN tile kernel of T, which nnLanes has checked
// exists.
func nnTile[T Float](c *T, ldc int, a *T, lda int, b *T, offs *int, k int, mask uint64, rows int, acc bool) {
	switch c := any(c).(type) {
	case *float64:
		nnTileF64(c, ldc, any(a).(*float64), lda, any(b).(*float64), offs, k, mask, rows, acc)
	case *float32:
		nnTileF32(c, ldc, any(a).(*float32), lda, any(b).(*float32), offs, k, mask, rows, acc)
	}
}

// shiftedNTTiled runs ShiftedNT on 4 × 4 register tiles of dot
// products and reports whether it did (float64 only).
func shiftedNTTiled[T Float](m, k int, a []T, lda int, b []T, tp Taps, c []T, ldc int, acc bool) bool {
	var z T
	if _, ok := any(z).(float64); !ok || !useAVX512 || k == 0 {
		return false
	}
	if !acc {
		for i := range m {
			clear(c[i*ldc:][:tp.rows()])
		}
	}
	blocks := (m + 3) / 4
	for ib := range blocks {
		ntTiles(ib, m, k, a, lda, b, tp, c, ldc)
	}
	return true
}

// ntTiles adds rows [4·ib, 4·ib+4) of the NT product into C, one
// ntBlock slice of the reduction at a time, four taps per tile. A short
// block repeats its last row and a short tap group its last tap: the
// kernel computes each element alone, so the padding changes no bits.
func ntTiles[T Float](ib, m, k int, a []T, lda int, b []T, tp Taps, c []T, ldc int) {
	i, n := 4*ib, tp.rows()
	nr := min(4, m-i)
	var rows, taps [4]int
	for r := range rows {
		rows[r] = (i + min(r, nr-1)) * lda
	}
	var out [32]T
	for q0 := 0; q0 < k; q0 += ntBlock {
		kc := min(ntBlock, k-q0)
		walk := tapWalk{Taps: tp}
		for j := 0; j < n; j += 4 {
			nt := min(4, n-j)
			for t := range taps {
				if t < nt {
					taps[t] = walk.next() + q0
				} else {
					taps[t] = taps[nt-1]
				}
			}
			ntTile(&a[q0], &rows, &b[0], &taps, kc, &out)
			for r := range nr {
				cr := c[(i+r)*ldc+j:][:nt]
				for t := range cr {
					cr[t] += out[8*r+2*t]
				}
			}
		}
	}
}

// ntTile calls the float64 NT tile kernel.
func ntTile[T Float](a *T, rows *[4]int, b *T, taps *[4]int, k int, out *[32]T) {
	if a, ok := any(a).(*float64); ok {
		ntTileF64(a, rows, any(b).(*float64), taps, k, any(out).(*[32]float64))
	}
}
