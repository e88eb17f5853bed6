package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/tensor"
)

// Client is the typed Go client for a Server. The zero value is not
// usable; construct with NewClient. Binary switches the wire format
// from JSON to gob — ~3× smaller requests and no float formatting
// cost, with bit-identical tensors either way.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Binary selects the gob wire format.
	Binary bool
}

// NewClient returns a JSON-format client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// encodeBody encodes the history into a pooled Body the caller
// releases once the request has been sent.
func (c *Client) encodeBody(states []*tensor.Tensor) (*Body, string, error) {
	req := PredictRequest{States: make([]TensorJSON, len(states))}
	n := 0
	for i, st := range states {
		req.States[i] = NewTensorJSON(st)
		n += st.Size()
	}
	body, contentType := NewBody(jsonSizeHint(n)), "application/json"
	var err error
	if c.Binary {
		buf := bytes.NewBuffer(body.B)
		err = gob.NewEncoder(buf).Encode(req)
		body.B, contentType = buf.Bytes(), ContentTypeGob
	} else {
		body.B, err = appendPredictRequest(body.B, req)
	}
	if err != nil {
		body.Release()
		return nil, "", err
	}
	return body, contentType, nil
}

func httpError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("serve: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
}

// Predict posts the history (oldest first) to /v1/predict and returns
// the predicted full-domain frame. The server runs it on the model's
// Engine.Predict, concurrently with other requests; results are
// bit-identical to a local Engine.Predict on the same ensemble.
func (c *Client) Predict(ctx context.Context, states ...*tensor.Tensor) (*tensor.Tensor, error) {
	return c.predictPath(ctx, "/v1/predict", states)
}

func (c *Client) predictPath(ctx context.Context, path string, states []*tensor.Tensor) (*tensor.Tensor, error) {
	body, contentType, err := c.encodeBody(states)
	if err != nil {
		return nil, err
	}
	defer body.Release()
	req, err := body.NewRequest(ctx, http.MethodPost, c.BaseURL+path)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	if c.Binary {
		var t tensor.Tensor
		if err := gob.NewDecoder(resp.Body).Decode(&t); err != nil {
			return nil, fmt.Errorf("serve: decoding gob response: %w", err)
		}
		return &t, nil
	}
	raw, err := ReadBody(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("serve: reading json response: %w", err)
	}
	wire, err := decodeTensorJSON(raw.B)
	raw.Release()
	if err != nil {
		return nil, fmt.Errorf("serve: decoding json response: %w", err)
	}
	return wire.Tensor()
}

// Rollout streams a steps-deep autoregressive rollout, handing each
// frame to fn as it arrives. A nil states slice issues a GET — the
// server rolls out from its configured initial history; otherwise the
// history is POSTed. fn returning an error stops consuming (the
// server notices the closed connection within one step).
func (c *Client) Rollout(ctx context.Context, steps int, states []*tensor.Tensor, fn func(step int, frame *tensor.Tensor) error) error {
	return c.rolloutPath(ctx, "/v1/rollout", steps, states, fn)
}

func (c *Client) rolloutPath(ctx context.Context, path string, steps int, states []*tensor.Tensor, fn func(step int, frame *tensor.Tensor) error) error {
	url := fmt.Sprintf("%s%s?steps=%d", c.BaseURL, path, steps)
	var req *http.Request
	var err error
	if states == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err == nil && c.Binary {
			req.Header.Set("Accept", ContentTypeGob)
		}
	} else {
		body, contentType, err := c.encodeBody(states)
		if err != nil {
			return err
		}
		defer body.Release()
		if req, err = body.NewRequest(ctx, http.MethodPost, url); err != nil {
			return err
		}
		req.Header.Set("Content-Type", contentType)
	}
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}

	// Gob is a stream-stateful decoder over the chunked body; NDJSON is
	// one record per line, each read into the same pooled slab.
	var next func() (RolloutFrame, error)
	if resp.Header.Get("Content-Type") == ContentTypeGob {
		dec := gob.NewDecoder(resp.Body)
		next = func() (RolloutFrame, error) {
			var f RolloutFrame
			return f, dec.Decode(&f)
		}
	} else {
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		line := NewBody(0)
		defer line.Release()
		next = func() (RolloutFrame, error) {
			if err := readLine(br, line); err != nil {
				return RolloutFrame{}, err
			}
			return decodeRolloutFrame(line.B)
		}
	}
	for k := 0; k < steps; k++ {
		f, err := next()
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("serve: rollout stream ended after %d of %d frames", k, steps)
		}
		if err != nil {
			return fmt.Errorf("serve: decoding rollout frame %d: %w", k, err)
		}
		if f.Error != "" {
			return fmt.Errorf("serve: rollout failed at frame %d: %s", k, f.Error)
		}
		if f.Frame == nil {
			return fmt.Errorf("serve: rollout frame %d without payload", k)
		}
		frame, err := f.Frame.Tensor()
		if err != nil {
			return err
		}
		if fn != nil {
			if err := fn(f.Step, frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// readLine reads through the next newline, or to the end of a stream
// that stops without one, into line.
func readLine(br *bufio.Reader, line *Body) error {
	line.B = line.B[:0]
	for {
		chunk, err := br.ReadSlice('\n')
		line.B = append(line.B, chunk...)
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		if errors.Is(err, io.EOF) && len(line.B) > 0 {
			return nil
		}
		return err
	}
}

// admin posts one /v2/admin operation and returns the resolved model
// identity.
func (c *Client) admin(ctx context.Context, op string, req AdminRequest) (*AdminResponse, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(req); err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v2/admin/"+op, &buf)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var out AdminResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve: decoding admin response: %w", err)
	}
	return &out, nil
}

// AdminSwap hot-swaps the model published under name with the
// artifact at dir; in-flight requests finish on the old version.
func (c *Client) AdminSwap(ctx context.Context, name, version, dir string) (*AdminResponse, error) {
	return c.admin(ctx, "swap", AdminRequest{Name: name, Version: version, Dir: dir})
}

// Health fetches and decodes /healthz — the typed probe cmd/router's
// replica table runs on (status, default model version, inflight).
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("serve: decoding healthz: %w", err)
	}
	return &h, nil
}
