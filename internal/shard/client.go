package shard

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"frugal/internal/store"
)

// maxClientConns caps the lazily-grown per-store connection pool; excess
// concurrent operations dial short-lived extra connections that are
// closed instead of pooled.
const maxClientConns = 4

// dialTimeout bounds connection establishment.
const dialTimeout = 5 * time.Second

// clientConn is one pooled connection with its buffered endpoints and
// reusable frame buffers. reqBuf/respBuf live exactly as long as the
// connection is held by one operation — roundTrip decodes the response
// before the connection re-enters the pool, so the buffers never alias
// across concurrent callers. On steady workloads (a trainer gathering the
// same batch size every step) both settle at the high-water frame size
// and the per-operation allocations disappear.
type clientConn struct {
	net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	reqBuf  []byte
	respBuf []byte
}

// RemoteStore presents one shard node through the store.Store interface
// by speaking the wire protocol over pooled TCP connections. All methods
// are safe for concurrent use; each operation holds one connection for
// exactly one request/response exchange. Transport failures close the
// affected connection and surface as *store.ShardUnavailableError;
// application errors (unowned key, bad dimensions) arrive as plain
// errors on a connection that stays pooled.
type RemoteStore struct {
	addr        string
	rows        int64
	dim         int
	coordinated bool
	shard, of   int

	pool   chan *clientConn
	closed atomic.Bool

	// traffic counts request frames and wire bytes per op code.
	traffic [numOps]opCounter
}

// numOps bounds the op codes the client counts (op codes are < numOps).
const numOps = 16

// opNames names the counted ops for Stats.
var opNames = [numOps]string{
	opInfo: "info", opGather: "gather", opScatter: "scatter",
	opWatermark: "watermark", opStaleness: "staleness",
	opFlushKey: "flush_key", opTopK: "topk", opPing: "ping", opVersions: "versions",
}

// opCounter is one op's traffic, padded to its own cache line so
// concurrent callers of different ops do not share one.
type opCounter struct {
	frames, sent, recv atomic.Int64
	_                  [40]byte
}

// OpStats is one op's client-side traffic: request frames sent, and wire
// bytes sent and received (frame headers included).
type OpStats struct {
	Frames, BytesSent, BytesRecv int64
}

// ClientStats is a snapshot of a RemoteStore's traffic per op.
type ClientStats struct {
	ops [numOps]OpStats
}

// Op returns the traffic of the op named name ("gather", "versions",
// "scatter", …); the zero value for unknown names. It is the per-op read
// side of the client's wire accounting; no production path reads it yet,
// and the wire tests use it to count frames per op.
func (c ClientStats) Op(name string) OpStats {
	for op, n := range opNames {
		if n == name && n != "" {
			return c.ops[op]
		}
	}
	return OpStats{}
}

// Stats snapshots the store's traffic counters.
func (s *RemoteStore) Stats() ClientStats {
	var c ClientStats
	for op := range s.traffic {
		t := &s.traffic[op]
		c.ops[op] = OpStats{Frames: t.frames.Load(), BytesSent: t.sent.Load(), BytesRecv: t.recv.Load()}
	}
	return c
}

// Dial connects to a shard node, fetches its Info (global rows, dim,
// coordination, topology), and returns the store.
func Dial(addr string) (*RemoteStore, error) {
	s := &RemoteStore{addr: addr, pool: make(chan *clientConn, maxClientConns)}
	cc, err := s.dial()
	if err != nil {
		return nil, err
	}
	resp, err := s.exchange(cc, opInfo, nil)
	if err != nil {
		return nil, err
	}
	d := &decoder{b: resp}
	s.rows = int64(d.u64())
	s.dim = int(d.u32())
	s.coordinated = d.u8() == 1
	s.shard = int(d.u32())
	s.of = int(d.u32())
	if err := d.finish(); err != nil {
		cc.Close()
		return nil, &store.ShardUnavailableError{Addr: addr, Err: err}
	}
	s.put(cc)
	return s, nil
}

// SplitAddrs parses a comma-separated shard address list (the -shards and
// -connect flags), dropping blanks.
func SplitAddrs(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// DialSharded dials every shard address, checks that the node at
// addrs[i] reports position i of len(addrs) — so node and client
// topologies agree on who owns which key — and composes the sharded
// store. On any failure every connection it opened is closed.
func DialSharded(addrs []string) (*store.ShardedStore, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("shard: no shard addresses")
	}
	shards := make([]store.Store, 0, len(addrs))
	closeAll := func() {
		for _, sh := range shards {
			sh.Close()
		}
	}
	for i, addr := range addrs {
		rs, err := Dial(addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard %d (%s): %w", i, addr, err)
		}
		shards = append(shards, rs)
		if got, of := rs.Shard(); got != i || of != len(addrs) {
			closeAll()
			return nil, fmt.Errorf("shard at %s reports position %d/%d, want %d/%d — node and client topologies disagree",
				addr, got, of, i, len(addrs))
		}
	}
	st, err := store.NewSharded(shards)
	if err != nil {
		closeAll()
		return nil, err
	}
	return st, nil
}

// Addr returns the node's address.
func (s *RemoteStore) Addr() string { return s.addr }

// Shard returns the node's (shard, of) topology position.
func (s *RemoteStore) Shard() (shard, of int) { return s.shard, s.of }

func (s *RemoteStore) dial() (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", s.addr, dialTimeout)
	if err != nil {
		return nil, &store.ShardUnavailableError{Addr: s.addr, Err: err}
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return &clientConn{
		Conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

// get pops a pooled connection or dials a fresh one.
func (s *RemoteStore) get() (*clientConn, error) {
	if s.closed.Load() {
		return nil, &store.ShardUnavailableError{Addr: s.addr, Err: fmt.Errorf("store closed")}
	}
	select {
	case cc := <-s.pool:
		return cc, nil
	default:
		return s.dial()
	}
}

// put returns a connection to the pool, or closes it when full.
func (s *RemoteStore) put(cc *clientConn) {
	if s.closed.Load() {
		cc.Close()
		return
	}
	select {
	case s.pool <- cc:
	default:
		cc.Close()
	}
}

// exchange runs one request/response on cc. The returned payload aliases
// cc's response buffer — it is valid only until cc is pooled or reused.
// Transport errors close the connection and come back wrapped; the caller
// must not reuse cc then.
func (s *RemoteStore) exchange(cc *clientConn, op byte, payload []byte) ([]byte, error) {
	t := &s.traffic[op%numOps]
	t.frames.Add(1)
	t.sent.Add(int64(5 + len(payload)))
	if err := writeFrame(cc.bw, op, payload); err != nil {
		cc.Close()
		return nil, &store.ShardUnavailableError{Addr: s.addr, Err: err}
	}
	if err := cc.bw.Flush(); err != nil {
		cc.Close()
		return nil, &store.ShardUnavailableError{Addr: s.addr, Err: err}
	}
	status, resp, err := readFrameInto(cc.br, cc.respBuf)
	if cap(resp) > cap(cc.respBuf) {
		cc.respBuf = resp[:0]
	}
	if err != nil {
		cc.Close()
		return nil, &store.ShardUnavailableError{Addr: s.addr, Err: err}
	}
	t.recv.Add(int64(5 + len(resp)))
	if status == statusErr {
		return nil, fmt.Errorf("shard %s: %s", s.addr, string(resp))
	}
	if status != statusOK {
		cc.Close()
		return nil, &store.ShardUnavailableError{Addr: s.addr, Err: fmt.Errorf("bad status 0x%02x", status)}
	}
	return resp, nil
}

// roundTrip acquires a connection, builds the request payload into the
// connection's reusable buffer, runs one exchange, decodes the response
// (including the trailing-bytes check) while the connection is still
// held, and pools the connection back unless the transport broke. build
// and decode may be nil for empty payloads. A decode failure is protocol
// corruption: the connection is closed and the error surfaces as
// shard-unavailable.
func (s *RemoteStore) roundTrip(op byte, build func(b []byte) []byte, decode func(d *decoder)) error {
	cc, err := s.get()
	if err != nil {
		return err
	}
	var payload []byte
	if build != nil {
		payload = build(cc.reqBuf[:0])
		cc.reqBuf = payload[:0]
	}
	resp, err := s.exchange(cc, op, payload)
	if err != nil {
		if _, unavailable := err.(*store.ShardUnavailableError); !unavailable {
			s.put(cc) // application error: the stream is still aligned
		}
		return err
	}
	d := &decoder{b: resp}
	if decode != nil {
		decode(d)
	}
	if err := d.finish(); err != nil {
		cc.Close()
		return &store.ShardUnavailableError{Addr: s.addr, Err: err}
	}
	s.put(cc)
	return nil
}

// Rows returns the GLOBAL table height the node reported.
func (s *RemoteStore) Rows() int64 { return s.rows }

// Dim returns the embedding dimension.
func (s *RemoteStore) Dim() int { return s.dim }

// Coordinated reports whether the node runs a P²F gate.
func (s *RemoteStore) Coordinated() bool { return s.coordinated }

// ReadRow reads one row by global key as a one-key gather.
func (s *RemoteStore) ReadRow(key uint64, dst []float32) (uint64, error) {
	if len(dst) != s.dim {
		return 0, fmt.Errorf("shard: dst length %d, want dim %d", len(dst), s.dim)
	}
	var v [1]uint64
	if err := s.Gather([]uint64{key}, dst, v[:]); err != nil {
		return 0, err
	}
	return v[0], nil
}

// Gather batch-reads rows by global key in a single round trip.
func (s *RemoteStore) Gather(keys []uint64, dst []float32, versions []uint64) error {
	if len(dst) != len(keys)*s.dim {
		return fmt.Errorf("shard: gather dst %d floats, want %d", len(dst), len(keys)*s.dim)
	}
	if versions != nil && len(versions) != len(keys) {
		return fmt.Errorf("shard: gather versions %d, want %d", len(versions), len(keys))
	}
	return s.roundTrip(opGather,
		func(b []byte) []byte {
			b = appendU32(b, uint32(len(keys)))
			return appendU64s(b, keys)
		},
		func(d *decoder) {
			if versions != nil {
				d.u64s(versions)
			} else {
				d.take(8 * len(keys))
			}
			d.f32s(dst)
		})
}

// Versions reads rows' update counters by global key in a single round
// trip, without shipping the rows.
func (s *RemoteStore) Versions(keys []uint64, out []uint64) error {
	if len(out) != len(keys) {
		return fmt.Errorf("shard: versions out %d, want %d", len(out), len(keys))
	}
	return s.roundTrip(opVersions,
		func(b []byte) []byte {
			b = appendU32(b, uint32(len(keys)))
			return appendU64s(b, keys)
		},
		func(d *decoder) { d.u64s(out) })
}

// Scatter ships one step's updates (possibly empty — the pure commit
// signal) in a single round trip.
func (s *RemoteStore) Scatter(step int64, updates []store.KeyDelta) error {
	for _, u := range updates {
		if len(u.Delta) != s.dim {
			return fmt.Errorf("shard: delta length %d, want dim %d", len(u.Delta), s.dim)
		}
	}
	return s.roundTrip(opScatter,
		func(b []byte) []byte {
			b = appendI64(b, step)
			b = appendU32(b, uint32(len(updates)))
			for _, u := range updates {
				b = appendU64(b, u.Key)
				b = appendF32(b, u.StateDelta)
				b = appendF32s(b, u.Delta)
			}
			return b
		}, nil)
}

// Watermark returns the node's committed-step watermark. The signature
// cannot carry an error, so an unreachable node reports -1 — the
// nothing-committed value, which composed stores treat as maximally
// conservative (bounded reads degrade rather than lie).
func (s *RemoteStore) Watermark() int64 {
	var wm int64
	err := s.roundTrip(opWatermark, nil,
		func(d *decoder) { wm = d.i64() })
	if err != nil {
		return -1
	}
	return wm
}

// RowStaleness reports the key's flush lag against the node's watermark.
func (s *RemoteStore) RowStaleness(key uint64) (lag, watermark int64, err error) {
	err = s.roundTrip(opStaleness,
		func(b []byte) []byte { return appendU64(b, key) },
		func(d *decoder) {
			lag = d.i64()
			watermark = d.i64()
		})
	if err != nil {
		return 0, 0, err
	}
	return lag, watermark, nil
}

// FlushKey drains the key's pending write set on the node.
func (s *RemoteStore) FlushKey(key uint64) (bool, error) {
	var flushed bool
	err := s.roundTrip(opFlushKey,
		func(b []byte) []byte { return appendU64(b, key) },
		func(d *decoder) { flushed = d.u8() == 1 })
	if err != nil {
		return false, err
	}
	return flushed, nil
}

// TopK asks the node for its best k owned rows.
func (s *RemoteStore) TopK(ctx context.Context, query []float32, k int) ([]store.ScoredRow, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []store.ScoredRow
	var countErr error
	err := s.roundTrip(opTopK,
		func(b []byte) []byte {
			b = appendU32(b, uint32(k))
			b = appendU32(b, uint32(len(query)))
			return appendF32s(b, query)
		},
		func(d *decoder) {
			count := int(d.u32())
			if count < 0 || count > k {
				countErr = fmt.Errorf("topk count %d > k %d", count, k)
				d.take(len(d.b) - d.off) // drain; the stream itself is aligned
				return
			}
			out = make([]store.ScoredRow, count)
			for i := range out {
				out[i].Key = d.u64()
				out[i].Version = d.u64()
				out[i].Score = d.f32()
			}
		})
	if err != nil {
		return nil, err
	}
	if countErr != nil {
		return nil, &store.ShardUnavailableError{Addr: s.addr, Err: countErr}
	}
	return out, nil
}

// Ping round-trips an empty frame. It is the client side of the wire
// protocol's ping op, kept for health checks; no production path pings
// yet, and the wire tests use it to prove a connection round-trips.
func (s *RemoteStore) Ping() error {
	return s.roundTrip(opPing, nil, nil)
}

// Close drains and closes the connection pool.
func (s *RemoteStore) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	for {
		select {
		case cc := <-s.pool:
			cc.Close()
		default:
			return nil
		}
	}
}
