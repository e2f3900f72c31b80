package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"frugal/internal/serve"
	"frugal/internal/shard"
	"frugal/internal/store"
)

// gateStore is a minimal store.Store for driving the HTTP error paths
// and the resolver matrix: reads optionally block on a gate channel (to
// pin the admission slot or outlive a request deadline), the staleness
// surface is canned, and FlushKey calls are counted.
type gateStore struct {
	rows        int64
	dim         int
	coordinated bool
	gate        chan struct{} // when non-nil, ReadRow blocks until closed
	lag         int64         // RowStaleness lag
	wm          int64         // watermark
	flushed     bool          // FlushKey's report
	flushes     atomic.Int64  // FlushKey calls

	// What CatchUp leaves behind when the store is wrapped as a
	// replicaGate, and how often it ran.
	caughtLag, caughtWM int64
	catchUps            atomic.Int64
}

func (s *gateStore) Rows() int64       { return s.rows }
func (s *gateStore) Dim() int          { return s.dim }
func (s *gateStore) Coordinated() bool { return s.coordinated }

func (s *gateStore) ReadRow(key uint64, dst []float32) (uint64, error) {
	if s.gate != nil {
		<-s.gate
	}
	for j := range dst {
		dst[j] = float32(key)
	}
	return 1, nil
}

func (s *gateStore) Gather(keys []uint64, dst []float32, versions []uint64) error {
	for i, k := range keys {
		if _, err := s.ReadRow(k, dst[i*s.dim:(i+1)*s.dim]); err != nil {
			return err
		}
		if versions != nil {
			versions[i] = 1
		}
	}
	return nil
}

func (s *gateStore) Versions(keys []uint64, out []uint64) error {
	for i := range keys {
		out[i] = 1
	}
	return nil
}

func (s *gateStore) Scatter(step int64, updates []store.KeyDelta) error { return nil }
func (s *gateStore) Version(key uint64) (uint64, error)                 { return 1, nil }
func (s *gateStore) Watermark() int64                                   { return s.wm }
func (s *gateStore) RowStaleness(key uint64) (int64, int64, error)      { return s.lag, s.wm, nil }

func (s *gateStore) FlushKey(key uint64) (bool, error) {
	s.flushes.Add(1)
	return s.flushed, nil
}

func (s *gateStore) TopK(ctx context.Context, query []float32, k int) ([]store.ScoredRow, error) {
	out := make([]store.ScoredRow, k)
	for i := range out {
		out[i] = store.ScoredRow{Key: uint64(i), Version: 1}
	}
	return out, nil
}

func (s *gateStore) Close() error { return nil }

// replicaGate is a gateStore the engine treats as a serve follower: its
// CatchUp applies "more of the log" by moving the canned staleness to
// (caughtLag, caughtWM).
type replicaGate struct{ *gateStore }

func (r replicaGate) CatchUp() error {
	r.catchUps.Add(1)
	r.lag, r.wm = r.caughtLag, r.caughtWM
	return nil
}

// decodeEnvelope asserts the response is the one JSON error envelope and
// returns it.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) (envelope struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Code != wantCode || envelope.Error == "" {
		t.Fatalf("envelope = %+v, want code %q with a message", envelope, wantCode)
	}
	return envelope
}

// TestHTTPDeprecationHeaders pins the legacy-route sunset contract: the
// unversioned aliases advertise their deprecation on every response, and
// the /v1 routes never do.
func TestHTTPDeprecationHeaders(t *testing.T) {
	srv := testServer(t)
	for _, legacy := range []string{"/lookup?key=1", "/topk?q=1,0,0,0&k=2"} {
		resp, err := http.Get(srv.URL + legacy)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("Deprecation") != "true" {
			t.Errorf("%s: no Deprecation header", legacy)
		}
		if resp.Header.Get("Sunset") == "" {
			t.Errorf("%s: no Sunset header", legacy)
		}
	}
	// The successor link names the v1 route.
	resp, err := http.Get(srv.URL + "/lookup?key=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if link := resp.Header.Get("Link"); link != `</v1/lookup>; rel="successor-version"` {
		t.Fatalf("Link = %q", link)
	}
	// Errors through the legacy route carry the headers too.
	resp, err = http.Get(srv.URL + "/lookup?key=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Deprecation") != "true" || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("legacy error response: status %d, Deprecation %q", resp.StatusCode, resp.Header.Get("Deprecation"))
	}
	// The canonical routes are clean.
	for _, v1 := range []string{"/v1/lookup?key=1", "/v1/topk?q=1,0,0,0&k=2"} {
		resp, err := http.Get(srv.URL + v1)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("Deprecation") != "" || resp.Header.Get("Sunset") != "" {
			t.Errorf("%s: carries deprecation headers", v1)
		}
	}
}

// TestHTTPShedEnvelope drives admission control to a 429: a blocked read
// pins the engine's only inflight slot, so the next request waits out
// AdmitWait and is shed with the envelope and a Retry-After header.
func TestHTTPShedEnvelope(t *testing.T) {
	st := &gateStore{rows: 8, dim: 4, wm: -1, gate: make(chan struct{})}
	eng, err := serve.NewFromStore(st, serve.Options{
		MaxInflight: 1, TopKWeight: 1, AdmitWait: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(srv.Close)

	// Pin the slot: this query blocks inside ReadRow until the gate opens.
	holderDone := make(chan error, 1)
	go func() {
		dst := make([]float32, 4)
		_, err := eng.Query(context.Background(), serve.Request{Key: 0, Dst: dst, Level: serve.Stale()})
		holderDone <- err
	}()
	waitInflight(t, eng, 1)

	resp, err := http.Get(srv.URL + "/v1/lookup?key=1")
	if err != nil {
		t.Fatal(err)
	}
	envelope := decodeEnvelope(t, resp, http.StatusTooManyRequests, "shed")
	if envelope.RetryAfterMS <= 0 {
		t.Fatalf("shed advertised retry_after_ms %d", envelope.RetryAfterMS)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(st.gate)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder query: %v", err)
	}
}

// TestHTTPDeadlineEnvelope drives the per-request deadline to a 503: the
// slot is pinned and AdmitWait exceeds RequestTimeout, so the waiting
// request's context expires first.
func TestHTTPDeadlineEnvelope(t *testing.T) {
	st := &gateStore{rows: 8, dim: 4, wm: -1, gate: make(chan struct{})}
	eng, err := serve.NewFromStore(st, serve.Options{
		MaxInflight: 1, TopKWeight: 1,
		AdmitWait:      time.Second,
		RequestTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(srv.Close)

	holderDone := make(chan error, 1)
	go func() {
		dst := make([]float32, 4)
		_, err := eng.Query(context.Background(), serve.Request{Key: 0, Dst: dst, Level: serve.Stale()})
		holderDone <- err
	}()
	waitInflight(t, eng, 1)

	resp, err := http.Get(srv.URL + "/v1/lookup?key=1")
	if err != nil {
		t.Fatal(err)
	}
	envelope := decodeEnvelope(t, resp, http.StatusServiceUnavailable, "deadline")
	if envelope.RetryAfterMS <= 0 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("deadline response not retryable: %+v, Retry-After %q", envelope, resp.Header.Get("Retry-After"))
	}

	close(st.gate)
	<-holderDone
}

// TestHTTPTooStaleEnvelope drives a RejectStale bounded read to a 503:
// the store reports a lag beyond the bound and the engine refuses rather
// than force-flushing.
func TestHTTPTooStaleEnvelope(t *testing.T) {
	st := &gateStore{rows: 8, dim: 4, coordinated: true, lag: 99, wm: 10}
	eng, err := serve.NewFromStore(st, serve.Options{RejectStale: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/v1/lookup?key=1&level=bounded(2)")
	if err != nil {
		t.Fatal(err)
	}
	envelope := decodeEnvelope(t, resp, http.StatusServiceUnavailable, "too_stale")
	if envelope.RetryAfterMS <= 0 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("too_stale response not retryable: %+v", envelope)
	}
}

// TestHTTPShardUnavailableEnvelope kills a real shard node mid-session:
// the serving layer must answer 503 shard_unavailable — retryable — not a
// 400 or a hung connection.
func TestHTTPShardUnavailableEnvelope(t *testing.T) {
	node, err := shard.NewNode(shard.NodeOptions{Rows: 16, Dim: 4, Trainers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	shardSrv, err := shard.NewServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shard.Dial(shardSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.NewSharded([]store.Store{rs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng, err := serve.NewFromStore(st, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.Handler())
	t.Cleanup(srv.Close)

	// Healthy first: the route works while the shard is up.
	resp, err := http.Get(srv.URL + "/v1/lookup?key=3&level=stale")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy lookup status %d", resp.StatusCode)
	}

	shardSrv.Close()

	resp, err = http.Get(srv.URL + "/v1/lookup?key=3&level=stale")
	if err != nil {
		t.Fatal(err)
	}
	envelope := decodeEnvelope(t, resp, http.StatusServiceUnavailable, "shard_unavailable")
	if envelope.RetryAfterMS <= 0 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shard_unavailable response not retryable: %+v", envelope)
	}
}

// waitInflight polls until the engine reports n admitted units.
func waitInflight(t *testing.T, eng *serve.Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for eng.Inflight() != n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d (now %d)", n, eng.Inflight())
		}
		time.Sleep(time.Millisecond)
	}
}
