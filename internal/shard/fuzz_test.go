package shard

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzFrameDecode feeds arbitrary bytes to the server's request path —
// the frame reader, then the op handler over a small uncoordinated
// node. Garbage must come back as an error: never a panic, and never an
// allocation sized by a count or length the bytes claim rather than by
// the bytes actually sent. The seed corpus (testdata/fuzz) holds a valid
// frame of every op plus hostile counts, lengths and truncations.
func FuzzFrameDecode(f *testing.F) {
	const rows, dim = 64, 4
	node, err := NewNode(NodeOptions{Rows: rows, Dim: dim, Uncoordinated: true})
	if err != nil {
		f.Fatal(err)
	}
	srv := &Server{st: node, info: serverInfo{of: 1}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op, payload, err := readFrameInto(bytes.NewReader(data), nil)
		if err == nil {
			sc := &connScratch{row: make([]float32, dim)}
			srv.handle(op, payload, sc, nil)
		}
		runtime.ReadMemStats(&after)
		// Decoding and answering may copy and widen what was sent (a key
		// becomes a version and a row), never more than a fixed factor.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+64<<10); got > limit {
			t.Fatalf("%d-byte request allocated %d bytes (limit %d)", len(data), got, limit)
		}
	})
}
