package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"sramtest/internal/jobs"
)

// batchServer stands in for a node's POST /v1/batch: it checks the
// request carries one spec line per shard, then streams the lines reply
// builds, in whatever order reply gives them.
func batchServer(t *testing.T, status int, reply func(n int) []BatchResult) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" || r.Method != http.MethodPost {
			http.NotFound(w, r)
			return
		}
		lines, err := ReadBatchLines(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, line := range lines {
			if _, err := DecodeSpec(line); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		if status != http.StatusOK {
			http.Error(w, "queue full", status)
			return
		}
		bw := NewBatchWriter(w)
		for _, res := range reply(len(lines)) {
			if err := bw.Write(res); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// done is a successful result line whose payload names its index.
func done(i int) BatchResult {
	return BatchResult{Index: i, State: BatchStateDone, Result: []byte(fmt.Sprint(i * 10))}
}

// shardSpecs is a k-shard yield fan-out.
func shardSpecs(k int) []jobs.Spec {
	specs := make([]jobs.Spec, k)
	for s := range specs {
		specs[s] = jobs.Spec{Kind: jobs.KindYield, Yield: &jobs.YieldSpec{Samples: 64, Shards: k, Shard: s}}
	}
	return specs
}

// TestFanOutOrdersOutOfOrderStream: results streamed in reverse come
// back in spec order.
func TestFanOutOrdersOutOfOrderStream(t *testing.T) {
	srv := batchServer(t, http.StatusOK, func(n int) []BatchResult {
		var out []BatchResult
		for i := n - 1; i >= 0; i-- {
			out = append(out, done(i))
		}
		return out
	})
	got, err := FanOut(srv.URL, shardSpecs(4))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("0"), []byte("10"), []byte("20"), []byte("30")}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("results %q, want %q", got, want)
	}

	sum, err := FanOutShards(srv.URL, 4, func(s int) jobs.Spec { return shardSpecs(4)[s] }, func(parts []int) (int, error) {
		total := 0
		for s, p := range parts {
			total += p
			if p != s*10 {
				return 0, fmt.Errorf("part %d decoded as %d", s, p)
			}
		}
		return total, nil
	})
	if err != nil || sum != 60 {
		t.Errorf("FanOutShards = %d, %v; want 60", sum, err)
	}
	if _, err := FanOutShards(srv.URL, 1, func(s int) jobs.Spec { return shardSpecs(1)[s] }, func([]int) (int, error) { return 0, nil }); err == nil {
		t.Error("FanOutShards accepted a single shard")
	}
}

// TestFanOutRejects: a failed shard, a missing or duplicate index, and
// a non-200 status all fail the fan-out.
func TestFanOutRejects(t *testing.T) {
	cases := []struct {
		name   string
		status int
		reply  func(n int) []BatchResult
		err    string
	}{
		{"failed shard", http.StatusOK, func(int) []BatchResult {
			return []BatchResult{done(2), {Index: 1, State: BatchStateFailed, Error: "boom"}, done(0)}
		}, "shard 1: boom"},
		{"missing index", http.StatusOK, func(int) []BatchResult {
			return []BatchResult{done(2), done(0)}
		}, "without shard 1"},
		{"duplicate index", http.StatusOK, func(int) []BatchResult {
			return []BatchResult{done(1), done(0), done(1), done(2)}
		}, "unexpected result index 1"},
		{"out-of-range index", http.StatusOK, func(int) []BatchResult {
			return []BatchResult{done(0), done(1), done(2), done(3)}
		}, "unexpected result index 3"},
		{"non-200 status", http.StatusServiceUnavailable, nil, "HTTP 503: queue full"},
	}
	for _, tc := range cases {
		srv := batchServer(t, tc.status, tc.reply)
		_, err := FanOut(srv.URL, shardSpecs(3))
		if err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.err)
		}
	}
}
