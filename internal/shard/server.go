package shard

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"frugal/internal/store"
)

// Server exports a store.Store over the wire protocol: one TCP
// listener, one goroutine per connection, one request/response frame
// pair per operation. A *Node reports its placement on opInfo; any other
// store is exported as shard 0 of 1.
type Server struct {
	st     store.Store
	info   serverInfo
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// serverInfo is the topology the server reports on opInfo.
type serverInfo struct {
	shard, of int
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and starts serving st.
func NewServer(addr string, st store.Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeListener(ln, st), nil
}

// ServeListener starts serving st on an existing listener.
func ServeListener(ln net.Listener, st store.Store) *Server {
	s := &Server{st: st, ln: ln, conns: make(map[net.Conn]struct{})}
	if n, ok := st.(*Node); ok {
		s.info = serverInfo{shard: n.KeyMap().Shard(), of: n.KeyMap().Of()}
	} else {
		s.info = serverInfo{shard: 0, of: 1}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (resolves ":0" ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs open connections, and waits for the
// per-connection goroutines. The underlying store is not closed — it
// belongs to the caller.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	// Per-connection scratch, reused across requests: the response buffer,
	// the request frame buffer, and the gather working set all settle at
	// their high-water sizes instead of reallocating per frame.
	sc := &connScratch{}
	var (
		reqBuf  []byte
		payload []byte
	)
	for {
		op, req, err := readFrameInto(br, reqBuf)
		if cap(req) > cap(reqBuf) {
			reqBuf = req[:0]
		}
		if err != nil {
			return // EOF or torn frame: drop the connection
		}
		payload, err = s.handle(op, req, sc, payload[:0])
		if err != nil {
			if werr := writeFrame(bw, statusErr, []byte(err.Error())); werr != nil {
				return
			}
		} else {
			if werr := writeFrame(bw, statusOK, payload); werr != nil {
				return
			}
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// connScratch is one connection's reusable working set. Connections are
// served by a single goroutine, so the slices never alias across
// concurrent requests.
type connScratch struct {
	keys []uint64  // gather key batch
	rows []float32 // gather row batch / topk query
	vers []uint64  // gather version batch
	upd  []store.KeyDelta
}

// growKeys returns a length-n key slice backed by the scratch.
func (sc *connScratch) growKeys(n int) []uint64 {
	if cap(sc.keys) < n {
		sc.keys = make([]uint64, n)
	}
	return sc.keys[:n]
}

// growRows returns a length-n float slice backed by the scratch.
func (sc *connScratch) growRows(n int) []float32 {
	if cap(sc.rows) < n {
		sc.rows = make([]float32, n)
	}
	return sc.rows[:n]
}

// growVers returns a length-n version slice backed by the scratch.
func (sc *connScratch) growVers(n int) []uint64 {
	if cap(sc.vers) < n {
		sc.vers = make([]uint64, n)
	}
	return sc.vers[:n]
}

// decodeKeys decodes a count-prefixed key list into the key scratch. The
// count must be at most max and match the bytes left in the payload, so
// a corrupt or hostile count is refused before anything is sized by it.
func (sc *connScratch) decodeKeys(d *decoder, max int) ([]uint64, error) {
	count := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if count > max {
		return nil, fmt.Errorf("shard: key count %d exceeds %d", count, max)
	}
	if 8*count != len(d.b)-d.off {
		return nil, fmt.Errorf("shard: key count %d does not match %d payload bytes", count, len(d.b)-d.off)
	}
	keys := sc.growKeys(count)
	d.u64s(keys)
	return keys, d.finish()
}

// handle dispatches one request and appends the response payload to out.
func (s *Server) handle(op byte, req []byte, sc *connScratch, out []byte) ([]byte, error) {
	d := &decoder{b: req}
	switch op {
	case opPing:
		if err := d.finish(); err != nil {
			return nil, err
		}
		return out, nil

	case opInfo:
		if err := d.finish(); err != nil {
			return nil, err
		}
		out = appendU64(out, uint64(s.st.Rows()))
		out = appendU32(out, uint32(s.st.Dim()))
		coord := byte(0)
		if s.st.Coordinated() {
			coord = 1
		}
		out = appendU8(out, coord)
		out = appendU32(out, uint32(s.info.shard))
		out = appendU32(out, uint32(s.info.of))
		return out, nil

	case opGather:
		dim := s.st.Dim()
		// The response carries a version and a row per key; it must fit
		// in one frame too.
		keys, err := sc.decodeKeys(d, (maxFrame-1)/(8+4*dim))
		if err != nil {
			return nil, err
		}
		rows := sc.growRows(len(keys) * dim)
		vers := sc.growVers(len(keys))
		if err := s.st.Gather(keys, rows, vers); err != nil {
			return nil, err
		}
		out = appendU64s(out, vers)
		return appendF32s(out, rows), nil

	case opVersions:
		keys, err := sc.decodeKeys(d, (maxFrame-1)/8)
		if err != nil {
			return nil, err
		}
		vers := sc.growVers(len(keys))
		if err := s.st.Versions(keys, vers); err != nil {
			return nil, err
		}
		return appendU64s(out, vers), nil

	case opScatter:
		step := d.i64()
		count := int(d.u32())
		dim := s.st.Dim()
		// Every update is a key, a state delta and a row: the count must
		// match the bytes actually sent before anything is sized by it.
		if d.err == nil && count != (len(d.b)-d.off)/(12+4*dim) {
			return nil, fmt.Errorf("shard: scatter count %d does not match a %d-byte payload", count, len(d.b))
		}
		// An uncoordinated store applies the deltas before Scatter returns,
		// so they decode into connection scratch; a coordinated one keeps
		// them in its write sets, so they get a block of their own.
		var block []float32
		if s.st.Coordinated() {
			block = make([]float32, count*dim)
		} else {
			block = sc.growRows(count * dim)
		}
		if cap(sc.upd) < count {
			sc.upd = make([]store.KeyDelta, count)
		}
		updates := sc.upd[:count]
		for i := range updates {
			key := d.u64()
			sd := d.f32()
			delta := block[i*dim : (i+1)*dim : (i+1)*dim]
			d.f32s(delta)
			updates[i] = store.KeyDelta{Key: key, Delta: delta, StateDelta: sd}
		}
		err := d.finish()
		if err == nil {
			err = s.st.Scatter(step, updates)
		}
		clear(updates)
		if err != nil {
			return nil, err
		}
		return out, nil

	case opWatermark:
		if err := d.finish(); err != nil {
			return nil, err
		}
		return appendI64(out, s.st.Watermark()), nil

	case opStaleness:
		key := d.u64()
		if err := d.finish(); err != nil {
			return nil, err
		}
		lag, wm, err := s.st.RowStaleness(key)
		if err != nil {
			return nil, err
		}
		out = appendI64(out, lag)
		return appendI64(out, wm), nil

	case opFlushKey:
		key := d.u64()
		if err := d.finish(); err != nil {
			return nil, err
		}
		flushed, err := s.st.FlushKey(key)
		if err != nil {
			return nil, err
		}
		b := byte(0)
		if flushed {
			b = 1
		}
		return appendU8(out, b), nil

	case opTopK:
		k := int(d.u32())
		qdim := int(d.u32())
		if qdim != s.st.Dim() {
			d.finish() // drain for a clean error either way
			return nil, fmt.Errorf("shard: query dim %d, want %d", qdim, s.st.Dim())
		}
		query := sc.growRows(qdim)
		d.f32s(query)
		if err := d.finish(); err != nil {
			return nil, err
		}
		res, err := s.st.TopK(context.Background(), query, k)
		if err != nil {
			return nil, err
		}
		out = appendU32(out, uint32(len(res)))
		for _, r := range res {
			out = appendU64(out, r.Key)
			out = appendU64(out, r.Version)
			out = appendF32(out, r.Score)
		}
		return out, nil

	default:
		return nil, fmt.Errorf("shard: unknown op 0x%02x", op)
	}
}
