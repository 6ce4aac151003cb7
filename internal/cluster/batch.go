package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"sramtest/internal/jobs"
)

// The NDJSON batch protocol. A request body is one job spec per line
// (the same JSON accepted by POST /v1/jobs); the response streams one
// BatchResult per line *as jobs complete*, so lines arrive out of input
// order and Index ties them back. Both the coordinator's fan-out batch
// endpoint and the node server's local one speak exactly this shape,
// which is what lets cluster output be diffed byte-for-byte against a
// single-node run (cmd/batchdiff).
const (
	// MaxBatchLine bounds one spec line; real specs are tiny.
	MaxBatchLine = 1 << 20
	// MaxBatchJobs bounds the number of specs in one batch request.
	MaxBatchJobs = 1 << 17
	// MaxBatchBody bounds the whole request body.
	MaxBatchBody = 1 << 28
)

// BatchResult is one streamed NDJSON response line.
type BatchResult struct {
	// Index is the zero-based line number of the spec in the request.
	Index int `json:"index"`
	// Key is the content address of the normalized spec (absent when the
	// line failed to parse).
	Key string `json:"key,omitempty"`
	// State is "done" or "failed".
	State string `json:"state"`
	// Node is the base URL of the node that served the job (empty when
	// the result came from a local run or the coordinator's own store).
	Node string `json:"node,omitempty"`
	// Cached reports a result-store hit rather than a fresh computation.
	Cached bool `json:"cached,omitempty"`
	// Result holds the CLI-identical result bytes (base64 in JSON).
	Result []byte `json:"result,omitempty"`
	// Error describes a failed line.
	Error string `json:"error,omitempty"`
}

// BatchStateDone and BatchStateFailed are the two BatchResult states.
const (
	BatchStateDone   = "done"
	BatchStateFailed = "failed"
)

// ReadBatchLines splits an NDJSON request body into spec lines,
// skipping blank lines and enforcing the protocol bounds.
func ReadBatchLines(r io.Reader) ([][]byte, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxBatchLine)
	var out [][]byte
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if len(out) >= MaxBatchJobs {
			return nil, fmt.Errorf("batch exceeds %d specs", MaxBatchJobs)
		}
		out = append(out, append([]byte(nil), line...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading batch: %w", err)
	}
	return out, nil
}

// DecodeSpec parses one batch line with the same strictness as the
// single-job submit endpoint.
func DecodeSpec(line []byte) (jobs.Spec, error) {
	var spec jobs.Spec
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return jobs.Spec{}, err
	}
	return spec, nil
}

// BatchWriter streams BatchResult lines, flushing after each so clients
// observe completions live. It is single-goroutine; callers serialize.
type BatchWriter struct {
	enc *json.Encoder
	f   http.Flusher
}

// NewBatchWriter wraps w; when w is an http.ResponseWriter each line is
// flushed through to the client.
func NewBatchWriter(w io.Writer) *BatchWriter {
	bw := &BatchWriter{enc: json.NewEncoder(w)}
	bw.enc.SetEscapeHTML(false)
	if f, ok := w.(http.Flusher); ok {
		bw.f = f
	}
	return bw
}

// Write emits one result line.
func (bw *BatchWriter) Write(res BatchResult) error {
	if err := bw.enc.Encode(res); err != nil {
		return err
	}
	if bw.f != nil {
		bw.f.Flush()
	}
	return nil
}

// FanOut posts specs as one NDJSON batch to target's POST /v1/batch (a
// node or a coordinator) and returns each spec's result bytes in spec
// order. A failed line, a missing, duplicate or out-of-range result
// index, and a non-200 status are all errors: callers merge the results
// as shard partials, so a short or ambiguous set must never pass.
func FanOut(target string, specs []jobs.Spec) ([][]byte, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, spec := range specs {
		if err := enc.Encode(spec); err != nil {
			return nil, err
		}
	}
	resp, err := http.Post(target+"/v1/batch", "application/x-ndjson", &body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("batch: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	out := make([][]byte, len(specs))
	seen := make([]bool, len(specs))
	dec := json.NewDecoder(resp.Body)
	for {
		var br BatchResult
		if err := dec.Decode(&br); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("batch stream: %w", err)
		}
		if br.Index < 0 || br.Index >= len(specs) || seen[br.Index] {
			return nil, fmt.Errorf("batch stream: unexpected result index %d", br.Index)
		}
		if br.State != BatchStateDone {
			return nil, fmt.Errorf("shard %d: %s", br.Index, br.Error)
		}
		out[br.Index], seen[br.Index] = br.Result, true
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("batch stream ended without shard %d", i)
		}
	}
	return out, nil
}

// FanOutShards runs one sharded estimate through FanOut: shard s of k
// is the job spec(s), each shard's result decodes as a partial P, and
// merge reassembles the partials into the estimate.
func FanOutShards[P, R any](target string, k int, spec func(s int) jobs.Spec, merge func([]P) (R, error)) (R, error) {
	var zero R
	if k < 2 {
		return zero, fmt.Errorf("cluster mode needs >= 2 shards, got %d (one shard is a plain job)", k)
	}
	specs := make([]jobs.Spec, k)
	for s := range specs {
		specs[s] = spec(s)
	}
	results, err := FanOut(target, specs)
	if err != nil {
		return zero, err
	}
	parts := make([]P, k)
	for s, b := range results {
		if err := json.Unmarshal(b, &parts[s]); err != nil {
			return zero, fmt.Errorf("shard %d: bad partial: %w", s, err)
		}
	}
	return merge(parts)
}
