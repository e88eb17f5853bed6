package serve

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// strconvJSON is the oracle for appendFloat: encoding/json's own float
// rule, strconv.AppendFloat plus its exponent fix-up.
func strconvJSON(dst []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, x, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// checkScanFloat holds the scanner to strconv.ParseFloat on one token
// of JSON's number grammar: the same verdict and, when both accept, the
// same bits.
func checkScanFloat(t testing.TB, tok []byte) {
	want, err := strconv.ParseFloat(string(tok), 64)
	got, ok := scan(tok, (*scanner).float)
	if ok != (err == nil) {
		t.Helper()
		t.Fatalf("%s: scanner ok=%v, ParseFloat error %v", tok, ok, err)
	}
	if ok && math.Float64bits(got) != math.Float64bits(want) {
		t.Helper()
		t.Fatalf("%s: scanner %v (%#x), ParseFloat %v (%#x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkFloatBothWays holds both directions to strconv for one value:
// appendFloat's bytes, the scanner's reading of them (x, by
// definition) and its reading of x printed to a random precision of up
// to 17 digits.
func checkFloatBothWays(t testing.TB, rng *rand.Rand, x float64, buf *[]byte) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	got := appendFloat((*buf)[:0], x)
	want := strconvJSON(got[len(got):], x)
	if string(got) != string(want) {
		t.Helper()
		t.Fatalf("bits %#x: appendFloat %s, strconv %s", math.Float64bits(x), got, want)
	}
	if y, ok := scan(got, (*scanner).float); !ok || math.Float64bits(y) != math.Float64bits(x) {
		t.Helper()
		t.Fatalf("bits %#x: scanner reads %s as %v (ok=%v)", math.Float64bits(x), got, y, ok)
	}
	*buf = strconv.AppendFloat(want[:0], x, 'e', rng.Intn(17), 64)
	checkScanFloat(t, *buf)
}

// TestFloatSweep checks both directions against strconv on seeded
// random bit patterns, every power of two and every power of ten, each
// with its neighbours one ulp away.
func TestFloatSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 0, 64)
	for i := 0; i < 1<<20; i++ {
		checkFloatBothWays(t, rng, math.Float64frombits(rng.Uint64()), &buf)
	}
	around := func(x float64) {
		for _, y := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
			checkFloatBothWays(t, rng, y, &buf)
			checkFloatBothWays(t, rng, -y, &buf)
		}
	}
	for e := -1074; e <= 1023; e++ {
		around(math.Ldexp(1, e))
	}
	for k := -323; k <= 308; k++ {
		x, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		if err != nil {
			t.Fatal(err)
		}
		around(x)
	}
	for b := uint64(1); b < 1<<8; b++ { // the smallest subnormals
		checkFloatBothWays(t, rng, math.Float64frombits(b), &buf)
	}
}

// TestPow10Table spot-checks the shared power table against math/big,
// and Schubfach's rounded-up factor against the floor it must exceed
// by exactly one.
func TestPow10Table(t *testing.T) {
	for q := pow10Min; q <= pow10Max; q += 1 + (q+400)%7 {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(q, -q))), nil)
		want := new(big.Int)
		if q >= 0 {
			if n := p.BitLen(); n > 128 {
				want.Rsh(p, uint(n-128))
			} else {
				want.Lsh(p, uint(128-n))
			}
		} else {
			// The largest x with x·10^-q below 2^(127+n): x ∈ [2^127, 2^128).
			want.Lsh(big.NewInt(1), uint(127+p.BitLen()))
			want.Div(want, p)
		}
		var b [16]byte
		want.FillBytes(b[:])
		e := pow10Table()[q-pow10Min]
		if e[0] != binary.BigEndian.Uint64(b[:8]) || e[1] != binary.BigEndian.Uint64(b[8:]) {
			t.Fatalf("10^%d: table %#x %#x, math/big %x", q, e[0], e[1], want)
		}
	}
	// g = floor(10^-k · 2^(125-floor(log2 10^-k))) + 1, in [2^125, 2^126].
	for k := -324; k <= 292; k++ {
		e := -k
		r := 125 - flog2pow10(e)
		beta := new(big.Rat).SetFrac(
			new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, 0))), nil),
			new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(-e, 0))), nil))
		scale := new(big.Int).Lsh(big.NewInt(1), uint(max(r, -r)))
		if r >= 0 {
			beta.Mul(beta, new(big.Rat).SetInt(scale))
		} else {
			beta.Quo(beta, new(big.Rat).SetInt(scale))
		}
		floor := new(big.Int).Quo(beta.Num(), beta.Denom())
		if floor.BitLen() != 126 {
			t.Fatalf("k=%d: floor(log2 10^%d) = %d is off: β has %d bits", k, e, flog2pow10(e), floor.BitLen())
		}
		g1, g0 := schubfachG(k)
		g := new(big.Int).Lsh(new(big.Int).SetUint64(g1), 63)
		g.Add(g, new(big.Int).SetUint64(g0))
		if g0>>63 != 0 || g.Cmp(floor.Add(floor, big.NewInt(1))) != 0 {
			t.Fatalf("k=%d: g = %x, want floor(β)+1 = %x", k, g, floor)
		}
	}
}

// TestBenchBodyTakesFastPath: every value of a 4×128×128 body like the
// one the benchmarks post and receive is read by decimal.value, never
// by the ParseFloat fallback.
func TestBenchBodyTakesFastPath(t *testing.T) {
	state := tensor.Uniform(tensor.NewRNG(1), 0.1, 0.9, 4, 128, 128)
	want := state.Data()
	body, err := AppendTensorJSON(nil, NewTensorJSON(state))
	if err != nil {
		t.Fatal(err)
	}
	data := body[strings.Index(string(body), `"data":[`)+len(`"data":[`) : len(body)-2]
	s := scanner{b: data}
	for n := 0; ; n++ {
		d, tok, ok := s.number()
		if !ok {
			t.Fatalf("value %d: not a number", n)
		}
		f, ok := d.value()
		if !ok || math.Float64bits(f) != math.Float64bits(want[n]) {
			t.Fatalf("value %d (%s): fast path gave %v, ok=%v", n, tok, f, ok)
		}
		if !s.next(',') {
			if n+1 != len(want) || !s.atEnd() {
				t.Fatalf("stopped after %d of %d values", n+1, len(want))
			}
			return
		}
	}
}

// TestSizeHintHoldsLongestValues: a frame of the longest float text
// encoding/json writes (a negative 17-digit value in [1e-6, 1e-5), 25
// bytes and its comma) fits the slab handlePredict sizes for it.
func TestSizeHintHoldsLongestValues(t *testing.T) {
	const x = -0.0000012345678901234567
	if got := appendFloat(nil, x); len(got) != maxFloatText {
		t.Fatalf("%s is %d bytes, maxFloatText is %d", got, len(got), maxFloatText)
	}
	const n = 82000
	data := make([]float64, n)
	for i := range data {
		data[i] = x
	}
	out := NewBody(jsonSizeHint(n))
	defer out.Release()
	before := cap(out.B)
	var err error
	if out.B, err = AppendTensorJSON(out.B, TensorJSON{Shape: []int{n}, Data: data}); err != nil {
		t.Fatal(err)
	}
	if len(out.B) > jsonSizeHint(n) || cap(out.B) != before {
		t.Fatalf("%d values took %d bytes, hint %d: slab grew from %d to %d", n, len(out.B), jsonSizeHint(n), before, cap(out.B))
	}
}

// jsonNumber builds a token in JSON's number grammar from arbitrary
// fuzz input: at most 40 digits, no leading zero in the integer part,
// an exponent within ±400.
func jsonNumber(neg bool, intPart, frac string, exp int16, hasExp bool) string {
	keep := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return r
			}
			return -1
		}, s)
	}
	intPart = strings.TrimLeft(keep(intPart), "0")
	frac = keep(frac)
	intPart = intPart[:min(len(intPart), 40)]
	frac = frac[:min(len(frac), 40-len(intPart))]
	var b strings.Builder
	if neg {
		b.WriteByte('-')
	}
	if intPart == "" {
		intPart = "0"
	}
	b.WriteString(intPart)
	if frac != "" {
		b.WriteString("." + frac)
	}
	if hasExp {
		b.WriteString("e" + strconv.Itoa(int(exp)%401))
	}
	return b.String()
}

// FuzzScanFloat is the differential target for the parser's fast
// paths: JSON-grammar numbers through checkScanFloat.
func FuzzScanFloat(f *testing.F) {
	for _, seed := range []string{
		"9007199254740993", "18446744073709551615", "18446744073709551616",
		"4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"1.7976931348623157e308", "1.7976931348623159e308", "-0", "0e999", "1e23",
		"0.00000000000000000000000000000000000001e330", "0.1", "123456789012345678901234567890",
		"0.00000000123456789012345678", "0.1234567890123456789", "0.12345678901234567890", // eight at a time
	} {
		neg := strings.HasPrefix(seed, "-")
		mant, exp, hasExp := strings.Cut(strings.TrimPrefix(seed, "-"), "e")
		intPart, frac, _ := strings.Cut(mant, ".")
		e, _ := strconv.Atoi(exp)
		f.Add(neg, intPart, frac, int16(e), hasExp)
	}
	f.Fuzz(func(t *testing.T, neg bool, intPart, frac string, exp int16, hasExp bool) {
		checkScanFloat(t, []byte(jsonNumber(neg, intPart, frac, exp, hasExp)))
	})
}

// The encoder's oracle agrees with encoding/json itself on the edges.
func TestStrconvJSONIsEncodingJSON(t *testing.T) {
	for _, x := range edgeFloats {
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if got := strconvJSON(nil, x); string(got) != string(want) {
			t.Errorf("%v: oracle %s, encoding/json %s", x, got, want)
		}
	}
}
