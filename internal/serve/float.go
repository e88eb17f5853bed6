package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// Float text in one pass each way (DESIGN.md §9). Reading, the
// scanner's grammar pass already collects a token's significant digits
// and decimal exponent (scanner.number); decimal.value turns them into
// the float64 strconv.ParseFloat would return, by Clinger's exact path
// or one Eisel–Lemire step (Lemire, "Number Parsing at a Gigabyte per
// Second", SP&E 51(8), 2021), and says when it cannot, so the caller
// asks ParseFloat. Writing, appendFloat finds the shortest correctly
// rounded digits with Schubfach (Giulietti, "The Schubfach way to
// render doubles", 2020) and lays them out as encoding/json does. Both
// directions are bit-for-bit what strconv produces; strconv stays the
// fallback and the tests' oracle.

// pow10Min and pow10Max bound the decimal exponents the power table
// covers: every float64 Eisel–Lemire can produce, and every 10^-k
// Schubfach asks for (k ∈ [-324, 292]).
const (
	pow10Min = -348
	pow10Max = 347
)

// pow10Table holds 10^q for q ∈ [pow10Min, pow10Max] as 128 bits
// {hi, lo}, normalized so the top bit is set and truncated:
// floor(10^q · 2^(127-floor(log2 10^q))). Built once, on first use.
var pow10Table = sync.OnceValue(func() *[pow10Max - pow10Min + 1][2]uint64 {
	var tab [pow10Max - pow10Min + 1][2]uint64
	set := func(q int, v *big.Int) {
		var b [16]byte
		v.FillBytes(b[:])
		tab[q-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	p, v := big.NewInt(1), new(big.Int)
	for m := 0; m <= -pow10Min; m++ { // p = 10^m, n bits long
		n := p.BitLen()
		switch {
		case m > pow10Max:
		case n > 128:
			set(m, v.Rsh(p, uint(n-128)))
		default:
			set(m, v.Lsh(p, uint(128-n)))
		}
		if m > 0 { // 2^(127+n) / 10^m lies strictly between 2^127 and 2^128
			set(-m, v.Quo(v.Lsh(big.NewInt(1), uint(127+n)), p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return &tab
})

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// maxMantDigits significant digits always fit a uint64.
const maxMantDigits = 19

// decimal is a number token as read: ±mant·10^exp from the first
// maxMantDigits of its nd significant digits.
type decimal struct {
	mant uint64
	exp  int
	nd   int
	neg  bool
}

// digit takes the next digit of the token; zeros before the first
// significant digit do not count.
func (d *decimal) digit(c byte) {
	if d.nd == 0 && c == '0' {
		return
	}
	if d.nd < maxMantDigits {
		d.mant = d.mant*10 + uint64(c-'0')
	}
	d.nd++
}

// digits8 takes the next eight fraction digits at once when v, read
// little-endian from the token, holds eight ASCII digits (Lemire's
// SWAR test and conversion), and reports whether it did. The caller
// keeps d.nd+8 within maxMantDigits.
func (d *decimal) digits8(v uint64) bool {
	if v&(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 != 0x3030303030303030 {
		return false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8 // pairs
	v = ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
	if d.nd == 0 { // no significant digit yet: leading zeros do not count
		d.nd = decimalLen(v)
	} else {
		d.nd += 8
	}
	d.mant = d.mant*1e8 + v
	d.exp -= 8
	return true
}

// value is the float64 nearest to d, exactly as strconv.ParseFloat
// rounds it, when the fast paths can tell: false for more than
// maxMantDigits significant digits, an exponent beyond the table (an
// overflow, an underflow to zero), a subnormal result and the rare
// product too close to a halfway point to decide.
func (d decimal) value() (float64, bool) {
	if d.nd > maxMantDigits {
		return 0, false
	}
	var f float64
	switch {
	case d.mant == 0:
	case d.mant <= 1<<53 && 0 <= d.exp && d.exp <= 22:
		f = float64(d.mant) * exactPow10[d.exp]
	case d.mant <= 1<<53 && -22 <= d.exp && d.exp < 0:
		f = float64(d.mant) / exactPow10[-d.exp]
	default:
		return eiselLemire(d.mant, d.exp, d.neg)
	}
	if d.neg {
		f = -f
	}
	return f, true
}

// eiselLemire is the Eisel–Lemire step for a nonzero mantissa, as
// strconv runs it (strconv/eisel_lemire.go), over pow10Table.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	pow := &pow10Table()[exp10-pow10Min]
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	retExp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	xHi, xLo := bits.Mul64(man, pow[0])
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		// The truncated high half leaves the rounding open: widen the
		// product with the low half of the power.
		yHi, yLo := bits.Mul64(man, pow[1])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	msb := xHi >> 63
	mant := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb
	if xLo == 0 && xHi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // halfway between two floats: ambiguous
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		retExp2++
	}
	if retExp2-1 >= 0x7FF-1 {
		return 0, false // subnormal, zero or infinite
	}
	b := retExp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// maxFloatText is the longest text appendFloat writes: a negative
// 17-digit value in [1e-6, 1e-5) in 'f' form, -0.0000dddddddddddddddd.
const maxFloatText = 25

// appendFloat formats x exactly as encoding/json does: ES6 number
// formatting, shortest digits that round-trip, exponent form below
// 1e-6 and from 1e21, and a one-digit negative exponent unpadded.
func appendFloat(dst []byte, x float64) []byte {
	b := math.Float64bits(x)
	if b<<1 == 0 {
		if b != 0 {
			return append(dst, "-0"...)
		}
		return append(dst, '0')
	}
	f, e := shortest(b)

	// All digits of f, the low sixteen in two independent 8-digit
	// chunks, right-aligned at digitsEnd in buf; then drop the zeros the
	// shortest form may end in. The sign, "0." and leading zeros go in
	// front of them, so the text leaves buf in one copy.
	const digitsEnd = 40
	var buf [digitsEnd]byte
	putDigits8(buf[digitsEnd-8:], uint32(f%1e8))
	putDigits8(buf[digitsEnd-16:], uint32(f/1e8%1e8))
	if f >= 1e16 {
		putDigits8(buf[digitsEnd-24:], uint32(f/1e16))
	}
	start, end := digitsEnd-decimalLen(f), digitsEnd
	for buf[end-1] == '0' {
		end--
		e++
	}
	n := end - start
	dp := n + e // the decimal point sits dp digits from the left

	if abs := math.Abs(x); abs < 1e-6 || abs >= 1e21 {
		return appendExp(dst, b>>63 != 0, buf[start:end], dp-1)
	}
	switch {
	case dp <= 0: // 0.000ddd, at most five zeros in this range
		binary.LittleEndian.PutUint64(buf[start-8:], 0x3030303030303030)
		start += dp - 2
		buf[start], buf[start+1] = '0', '.'
	case dp < n: // ddd.ddd
		copy(buf[start-1:], buf[start:start+dp])
		start--
		buf[start+dp] = '.'
	}
	if b>>63 != 0 {
		start--
		buf[start] = '-'
	}
	dst = append(dst, buf[start:end]...)
	if dp > n { // ddd000
		const zeros = "000000000000000000000"
		dst = append(dst, zeros[:dp-n]...)
	}
	return dst
}

// appendExp writes d.ddde±x, the exponent in as few digits as it takes.
func appendExp(dst []byte, neg bool, digits []byte, exp int) []byte {
	if neg {
		dst = append(dst, '-')
	}
	dst = append(dst, digits[0])
	if len(digits) > 1 {
		dst = append(append(dst, '.'), digits[1:]...)
	}
	dst = append(dst, 'e', '+')
	if exp < 0 {
		dst[len(dst)-1] = '-'
		exp = -exp
	}
	if exp >= 100 {
		dst = append(dst, byte('0'+exp/100))
	}
	if exp >= 10 {
		dst = append(dst, byte('0'+exp/10%10))
	}
	return append(dst, byte('0'+exp%10))
}

// putDigits8 writes v < 10^8 as eight digits into b[:8], all at once:
// the 4-digit halves, their 2-digit quarters and the single digits are
// split in parallel lanes of one uint64 (multiplying by 5243/2^19 and
// 103/2^10 divides by 100 and 10 exactly at these sizes), then stored
// as ASCII most significant digit first.
func putDigits8(b []byte, v uint32) {
	x := uint64(v/10000) | uint64(v%10000)<<32
	q := x * 5243 >> 19 & 0x0000007F0000007F
	x = q | (x-q*100)<<16
	q = x * 103 >> 10 & 0x000F000F000F000F
	x = q | (x-q*10)<<8
	binary.LittleEndian.PutUint64(b, x|0x3030303030303030)
}

var uint64Pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// decimalLen is the number of decimal digits of f, 0 for 0.
func decimalLen(f uint64) int {
	n := bits.Len64(f) * 1233 >> 12 // floor(log10 2^len)
	if f >= uint64Pow10[n] {
		n++
	}
	return n
}

// shortest returns the shortest decimal f·10^e that rounds to the
// positive finite float with bits b (sign ignored), the closest one
// when there are several and the even one on a tie: Schubfach, as in
// OpenJDK's DoubleToDecimal, with two changes for Go's rules — one
// digit is a valid result, and tiny subnormals are not scaled by ten
// to force a second digit.
func shortest(b uint64) (uint64, int) {
	t := b & (1<<52 - 1)
	bq := int(b>>52) & 0x7FF
	if bq == 0 {
		return schubfach(-1074, t)
	}
	c := 1<<52 | t
	if mq := 1075 - bq; 0 < mq && mq < 53 {
		// An integer below 2^53 is its own shortest form.
		if f := c >> mq; f<<mq == c {
			return f, 0
		}
	}
	return schubfach(bq-1075, c)
}

// schubfach finds the shortest decimal in the rounding interval of
// c·2^q, working on the interval's ends scaled by four (cbl, cb, cbr).
func schubfach(q int, c uint64) (uint64, int) {
	out := c & 1 // odd significand: the interval's ends are not in it
	cb := c << 2
	cbr := cb + 2
	var cbl uint64
	var k int
	if c != 1<<52 || q == -1074 {
		cbl = cb - 2
		k = flog10pow2(q)
	} else { // at a power of two the gap below is half the gap above
		cbl = cb - 1
		k = flog10threeQuartersPow2(q)
	}
	h := uint(q + flog2pow10(-k) + 2)
	g1, g0 := schubfachG(k)
	vb := rop(g1, g0, cb<<h)
	vbl := rop(g1, g0, cbl<<h)
	vbr := rop(g1, g0, cbr<<h)

	s := vb >> 2
	if s >= 10 {
		// One digit fewer: s' = floor(s/10) and s'+1, scaled by ten.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin := vbl+out <= sp10<<2
		wpin := tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin := vbl+out <= s<<2
	win := t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// schubfachG is Schubfach's 126-bit factor g = g1·2^63 + g0 for 10^-k:
// the table's truncated 128 bits shifted down two and rounded up.
func schubfachG(k int) (g1, g0 uint64) {
	pow := &pow10Table()[-k-pow10Min]
	hi, lo := pow[0]>>2, pow[0]<<62|pow[1]>>2
	lo++
	if lo == 0 {
		hi++
	}
	return hi<<1 | lo>>63, lo & (1<<63 - 1)
}

// rop is the round-to-odd product cp·g·2^-127.
func rop(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	vbp := y1 + z>>63
	return vbp | (z&(1<<63-1)+(1<<63-1))>>63
}

// floor(q·log10 2), floor(q·log10 2 + log10 3/4) and floor(e·log2 10)
// over the exponents doubles need.
func flog10pow2(q int) int { return int(int64(q) * 661971961083 >> 41) }

func flog10threeQuartersPow2(q int) int {
	return int((int64(q)*661971961083 - 274743187321) >> 41)
}

func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }
