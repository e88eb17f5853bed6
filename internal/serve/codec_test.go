package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// stdEncode is the encoder side of the oracle: what the handlers wrote
// before the codec.
func stdEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// edgeFloats sit on every branch of encoding/json's float formatting.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125,
	1e-6, 9.999999999999999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100,
	1e20, 1e21, 9.999999999999999e20, 1.7e308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
}

// TestEncodeMatchesEncodingJSON pins the wire contract on the encode
// side: every body the codec writes is byte-identical to
// json.NewEncoder's for the same value.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	tensors := []TensorJSON{
		{Shape: []int{3, 7}, Data: edgeFloats},
		{Shape: []int{}, Data: []float64{}},
		{}, // nil slices encode as null
	}
	for _, tj := range tensors {
		got, err := AppendTensorJSON(nil, tj)
		if err != nil {
			t.Fatal(err)
		}
		if want := stdEncode(t, tj); !bytes.Equal(append(got, '\n'), want) {
			t.Errorf("tensor:\n got %s\nwant %s", got, want)
		}
	}
	for _, req := range []PredictRequest{{States: tensors}, {States: []TensorJSON{}}, {}} {
		got, err := appendPredictRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if want := stdEncode(t, req); !bytes.Equal(got, want) {
			t.Errorf("request:\n got %s\nwant %s", got, want)
		}
	}
	frames := []RolloutFrame{
		{Step: 0, Frame: &tensors[0]},
		{Step: 41, RequestID: "abc-1.2_3", Frame: &tensors[0]},
		{Step: 2, RequestID: "a<b&c>é\u2028\xff", Frame: &tensors[1]},
		{Step: -1, RequestID: "r<1>", Error: "rank 2: link cut & \"quoted\""},
		{Step: 3, RequestID: "r", Frame: &tensors[0], Error: "both"},
		{Step: 7},
	}
	for _, f := range frames {
		got, err := appendRolloutFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		if want := stdEncode(t, f); !bytes.Equal(got, want) {
			t.Errorf("frame:\n got %s\nwant %s", got, want)
		}
	}
}

// TestEncodeRejectsNonFinite: NaN and ±Inf are an error from every
// encoder, as they are from encoding/json, never a malformed body.
func TestEncodeRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tj := TensorJSON{Shape: []int{2}, Data: []float64{1, x}}
		if _, err := AppendTensorJSON(nil, tj); !errors.Is(err, ErrNonFiniteOutput) {
			t.Errorf("AppendTensorJSON(%v) = %v, want ErrNonFiniteOutput", x, err)
		}
		if _, err := appendPredictRequest(nil, PredictRequest{States: []TensorJSON{tj}}); !errors.Is(err, ErrNonFiniteOutput) {
			t.Errorf("appendPredictRequest(%v) = %v, want ErrNonFiniteOutput", x, err)
		}
		if _, err := appendRolloutFrame(nil, RolloutFrame{Frame: &tj}); !errors.Is(err, ErrNonFiniteOutput) {
			t.Errorf("appendRolloutFrame(%v) = %v, want ErrNonFiniteOutput", x, err)
		}
	}
}

// pythonLayout is what json.dump writes: ", " and ": " separators,
// two-digit exponents, no trailing newline. Five smokes send it.
const pythonLayout = `{"states": [{"shape": [1, 2, 3], "data": [0.1, 1e-05, 1.5e+20, -0.0, 1e+16, 3]}]}`

// fastBodies must be decoded by the scanner itself, not the fallback.
var fastBodies = []string{
	`{"states":[{"shape":[1,2,3],"data":[0.1,1e-7,1e21,-0,5e-324,3]}]}` + "\n", // the Go client's layout
	pythonLayout,
	`{"states":[{"data":[1,2],"shape":[2]}]}`, // keys in the other order
	`{"states":[{"shape":[2],"data":[1E2,1e+2]},{"shape":[1],"data":[-1.5e-3]}]}`,
	" \t\r\n{ \"states\" : [ { \"shape\" : [ 2 ] , \"data\" : [ 1 , 2 ] } ] } \n\n",
	`{"states":[]}`, `{"states":[{}]}`, `{}`,
	`{"states":[{"shape":[],"data":[]}]}`,
}

// oddBodies are legal or illegal JSON the scanner must refuse, leaving
// the verdict to encoding/json.
var oddBodies = []string{
	``, ` `, `null`, `[]`, `{"states":null}`, `{"states":[null]}`,
	`{"states":[{"shape":null,"data":[1]}]}`, `{"states":[{"shape":[1],"data":null}]}`,
	`{"States":[{"Shape":[1],"DATA":[1]}]}`,            // keys match case-insensitively
	`{"st\u0061tes":[{"shape":[1],"data":[1]}]}`,       // escaped key
	`{"states":[{"shape":[1],"data":[1],"data":[2]}]}`, // duplicate key: last wins
	`{"states":[],"states":[{"shape":[1],"data":[7]}]}`,
	`{"states":[{"shape":[1],"data":[1],"extra":{"a":[1,"x"]}}]}`, // unknown key
	`{"states":[{"shape":[1],"data":[1]}]} trailing`,              // json.Decoder stops at the value
	`{"states":[{"shape":[1],"data":[1]}]}{"states":[]}`,
	`{"states":[{"shape":[1],"data":[1e400]}]}`, // out of range
	`{"states":[{"shape":[1],"data":[-1e400]}]}`,
	`{"states":[{"shape":[1],"data":[1e-400]}]}x`, // underflow is 0, not an error
	`{"states":[{"shape":[1.0],"data":[1]}]}`,     // not an int
	`{"states":[{"shape":[1e2],"data":[1]}]}`,
	`{"states":[{"shape":[-1],"data":[1]}]}`,                 // legal JSON, Tensor() refuses
	`{"states":[{"shape":[01],"data":[1]}]}`,                 // leading zero
	`{"states":[{"shape":[9223372036854775808],"data":[]}]}`, // int overflow
	`{"states":[{"shape":[1],"data":[01]}]}`,
	`{"states":[{"shape":[1],"data":[+1]}]}`, // ParseFloat takes these, JSON does not
	`{"states":[{"shape":[1],"data":[.5]}]}`,
	`{"states":[{"shape":[1],"data":[5.]}]}`,
	`{"states":[{"shape":[1],"data":[1e]}]}`,
	`{"states":[{"shape":[1],"data":[0x1p-2]}]}`,
	`{"states":[{"shape":[1],"data":[1_0]}]}`,
	`{"states":[{"shape":[1],"data":[Inf]}]}`,
	`{"states":[{"shape":[1],"data":[NaN]}]}`,
	`{"states":[{"shape":[1],"data":[-]}]}`,
	`{"states":[{"shape":[1],"data":["1"]}]}`,
	`{"states":[{"shape":[1],"data":[1,]}]}`, // trailing comma
	`{"states":[{"shape":[1],"data":[1]},]}`,
	`{"states":[{"shape":[1],"data":[1],}]}`,
	`{"states":[{"shape":[1],"data":[1 2]}]}`,
	`{"states":[{"shape":[1],"data":[1]}]`, // truncated
	`{"states":[{"shape":[1],"data":[1`,
	`{"states":[{"shape":[1],"da`,
	`{"states"`,
	"\xef\xbb\xbf" + `{"states":[]}`,                  // BOM
	"{\"states\":[{\"shape\":[1],\"data\":[1]}]}\x00", // NUL is not whitespace
	"{\"states\":[{\"shape\":[1],\"data\":[1\v]}]}",   // nor is VT
	`{"states":[{"shape":[1],"data":[1]}],"é":1}`,     // non-ASCII key
	`{"states":{"shape":[1],"data":[1]}}`,             // wrong type
	`{"states":[[1]]}`, `{"states":[1]}`, `{"states":"x"}`, `[{}]`,
}

func sameTensorJSON(a, b TensorJSON) bool {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return (a.Shape == nil) == (b.Shape == nil) && (a.Data == nil) == (b.Data == nil) &&
		slices.Equal(a.Shape, b.Shape) && slices.EqualFunc(a.Data, b.Data, sameBits)
}

func sameRequest(a, b PredictRequest) bool {
	return (a.States == nil) == (b.States == nil) && slices.EqualFunc(a.States, b.States, sameTensorJSON)
}

// checkAgainstOracle is the differential property both the table tests
// and FuzzPredictBody hold the decoders to: for any bytes, codec and
// encoding/json agree on accept or reject and, when they accept, on
// nil-ness, every shape and every bit of data — for all three bodies.
func checkAgainstOracle(t testing.TB, body []byte) {
	t.Helper()
	var wantReq PredictRequest
	wantErr := stdDecode(body, &wantReq)
	gotReq, gotErr := DecodePredictRequest(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("request %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr == nil && !sameRequest(gotReq, wantReq) {
		t.Fatalf("request %q:\n got %+v\nwant %+v", body, gotReq, wantReq)
	}
	// The scanner's own verdict, fallback aside: whatever it accepts
	// must be what encoding/json decodes.
	if req, ok := scan(body, (*scanner).predictRequest); ok {
		if wantErr != nil || !sameRequest(req, wantReq) {
			t.Fatalf("request %q: scanner accepted %+v, encoding/json says %+v, %v", body, req, wantReq, wantErr)
		}
		// However the slice was sized (from the shape, or grown while
		// appending when data came first) it stays within a small
		// multiple of what arrived.
		for _, st := range req.States {
			if cap(st.Data) > len(body) {
				t.Fatalf("request of %d bytes: data slice sized for %d values", len(body), cap(st.Data))
			}
		}
	}

	var wantT TensorJSON
	wantErr = stdDecode(body, &wantT)
	gotT, gotErr := decodeTensorJSON(body)
	if (gotErr == nil) != (wantErr == nil) || (wantErr == nil && !sameTensorJSON(gotT, wantT)) {
		t.Fatalf("tensor %q:\n got %+v, %v\nwant %+v, %v", body, gotT, gotErr, wantT, wantErr)
	}

	var wantF RolloutFrame
	wantErr = stdDecode(body, &wantF)
	gotF, gotErr := decodeRolloutFrame(body)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("frame %q: codec error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if wantErr == nil {
		if gotF.Step != wantF.Step || gotF.RequestID != wantF.RequestID || gotF.Error != wantF.Error ||
			(gotF.Frame == nil) != (wantF.Frame == nil) || (wantF.Frame != nil && !sameTensorJSON(*gotF.Frame, *wantF.Frame)) {
			t.Fatalf("frame %q:\n got %+v\nwant %+v", body, gotF, wantF)
		}
	}
}

// frameBodies are rollout records and bare tensors; the first three
// are the scanner's, the rest encoding/json's.
var frameBodies = []string{
	`{"step":3,"request_id":"k9-1f","frame":{"shape":[2],"data":[0.5,1e-9]}}` + "\n",
	`{"step":0,"frame":{"shape":[1],"data":[1]}}`,
	`{"frame": {"shape": [1], "data": [1]}, "step": 12}`,
	`{"step":-1,"request_id":"r","error":"rank 1: link cut"}`,
	`{"step":1,"request_id":"a\u003cb","frame":{"shape":[1],"data":[1]}}`,
	`{"step":1,"request_id":"é","frame":{"shape":[1],"data":[1]}}`,
	`{"step":1,"step":2}`, `{"step":1.5}`, `{"step":null,"frame":null}`,
	`{"shape":[2,1],"data":[1,2]}`, `{"shape":[1],"data":[1]} x`,
}

func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, group := range [][]string{fastBodies, oddBodies, frameBodies} {
		for _, body := range group {
			checkAgainstOracle(t, []byte(body))
		}
	}
	for _, body := range fastBodies {
		if _, ok := scan([]byte(body), (*scanner).predictRequest); !ok {
			t.Errorf("fell back to encoding/json on %q", body)
		}
	}
	for _, body := range oddBodies {
		if _, ok := scan([]byte(body), (*scanner).predictRequest); ok {
			t.Errorf("scanner took %q for itself", body)
		}
	}
	for i, body := range frameBodies[:3] {
		if _, ok := scan([]byte(body), (*scanner).rolloutFrame); !ok {
			t.Errorf("frame %d fell back to encoding/json", i)
		}
	}
}

// TestHostileShapes: a shape is a claim. Its product is
// overflow-checked in Tensor() (400 at the handlers) and never sizes
// an allocation beyond what the body could carry.
func TestHostileShapes(t *testing.T) {
	for _, tc := range []struct {
		name, body, wantErr string
	}{
		{"wraps to 0", `{"shape":[4611686018427387904,4],"data":[]}`, "overflows"},
		{"wraps to 1", `{"shape":[274177,67280421310721],"data":[5]}`, "overflows"},
		{"wraps to 2, a dimension too long for the scanner", `{"shape":[6148914691236517206,3],"data":[1,2]}`, "overflows"},
		{"huge, short data", `{"shape":[999999999,999999999],"data":[1,2,3]}`, "needs 999999998000000001 values, body carries 3"},
		{"zero dimension", `{"shape":[0,4],"data":[]}`, "non-positive"},
		{"no shape", `{"shape":[],"data":[]}`, "without shape"},
	} {
		body := []byte(tc.body)
		checkAgainstOracle(t, body)
		tj, err := decodeTensorJSON(body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if cap(tj.Data) > len(body)/2 {
			t.Errorf("%s: %d-byte body got a data slice sized for %d values", tc.name, len(body), cap(tj.Data))
		}
		if _, err := tj.Tensor(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Tensor() = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzPredictBody is the differential fuzz target (`make fuzz-smoke`):
// arbitrary bytes through checkAgainstOracle.
func FuzzPredictBody(f *testing.F) {
	for _, group := range [][]string{fastBodies, oddBodies, frameBodies} {
		for _, body := range group {
			f.Add([]byte(body))
		}
	}
	f.Add([]byte(strings.Repeat(" \n\t", 300) + pythonLayout + strings.Repeat("\r ", 300)))
	f.Fuzz(func(t *testing.T, body []byte) { checkAgainstOracle(t, body) })
}

// FuzzAppendFloat: for every finite float64 bit pattern the codec's
// text equals json.Marshal's and parses back to the same bits.
func FuzzAppendFloat(f *testing.F) {
	for _, x := range edgeFloats {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return
		}
		got := appendFloat(nil, x)
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bits %#x: codec %s, encoding/json %s", bits, got, want)
		}
		back, err := strconv.ParseFloat(string(got), 64)
		if err != nil || math.Float64bits(back) != bits {
			t.Fatalf("bits %#x: %s parses back to %v (%v)", bits, got, back, err)
		}
		if y, ok := scan(got, (*scanner).float); !ok || math.Float64bits(y) != bits {
			t.Fatalf("bits %#x: scanner reads %s as %v (ok=%v)", bits, got, y, ok)
		}
	})
}
