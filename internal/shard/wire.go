package shard

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Wire protocol (DESIGN §5h). Every message — request and response — is
// one frame:
//
//	request:  [u32 len][u8 op]    [payload, len-1 bytes]
//	response: [u32 len][u8 status][payload, len-1 bytes]
//
// len counts everything after itself (the op/status byte plus payload).
// All integers are little-endian; float32 travels as its IEEE-754 bits.
// status 0 is success; status 1 carries a UTF-8 error message as the
// payload (an application error — the connection stays usable). Op codes
// 0x02 (read-row) and 0x05 (version) are retired: a single row travels as
// a one-key gather, and versions only as a batch, so servers answer both
// codes as unknown ops.
const (
	opInfo      = 0x01 // () → rows u64, dim u32, coordinated u8, shard u32, of u32
	opGather    = 0x03 // count u32, keys count·u64 → versions count·u64, rows count·dim·f32
	opScatter   = 0x04 // step u64, count u32, {key u64, stateDelta f32, delta dim·f32}… → ()
	opWatermark = 0x06 // () → watermark u64 (two's-complement i64)
	opStaleness = 0x07 // key u64 → lag u64, watermark u64 (two's-complement i64s)
	opFlushKey  = 0x08 // key u64 → flushed u8
	opTopK      = 0x09 // k u32, dim u32, query dim·f32 → count u32, {key u64, version u64, score f32}…
	opPing      = 0x0a // () → ()
	opVersions  = 0x0b // count u32, keys count·u64 → versions count·u64

	statusOK  = 0x00
	statusErr = 0x01
)

// maxFrame bounds a single frame; anything larger is a protocol error.
// 64 MiB comfortably fits the largest legitimate message (a multi-
// thousand-row gather response) while keeping a corrupt length prefix
// from allocating unbounded memory.
const maxFrame = 64 << 20

// writeFrame sends one frame: the length prefix, the op/status byte, and
// the payload.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("shard: frame too large (%d bytes)", len(payload)+1)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = op
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readFrameInto reads one frame and returns its op/status byte and
// payload. The payload is decoded into buf when its capacity suffices,
// else into a fresh allocation. Callers retain the returned payload's
// backing array as the next call's buf — on a connection that exchanges
// similarly-sized frames the allocation happens once, not per frame
// (gather responses are the protocol's largest and hottest payloads).
func readFrameInto(r io.Reader, buf []byte) (op byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrame {
		return 0, buf, fmt.Errorf("shard: bad frame length %d", n)
	}
	op = hdr[4]
	need := int(n) - 1
	if cap(buf) >= need {
		payload = buf[:need]
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, payload, err
		}
		return op, payload, nil
	}
	// Grow with the bytes that actually arrive: a corrupt or hostile
	// length prefix costs at most twice what the peer really sent.
	payload = buf[:0]
	for len(payload) < need {
		chunk := min(need-len(payload), max(len(payload), 4<<10))
		payload = slices.Grow(payload, chunk)
		got, rerr := io.ReadFull(r, payload[len(payload):len(payload)+chunk])
		payload = payload[:len(payload)+got]
		if rerr != nil {
			return 0, payload, rerr
		}
	}
	return op, payload, nil
}

// ---------------------------------------------------------------------
// Payload encoding: an append-style encoder and a cursor decoder. The
// decoder latches its first error so call sites chain reads and check
// once at the end.

func appendU8(b []byte, v byte) []byte { return append(b, v) }
func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}
func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }
func appendF32(b []byte, v float32) []byte {
	return appendU32(b, math.Float32bits(v))
}

// appendF32s bulk-encodes a float slice: one capacity reservation, then
// direct stores — the per-element append bookkeeping is measurable on
// gather-sized payloads (thousands of rows × dim floats).
func appendF32s(b []byte, vs []float32) []byte {
	off := len(b)
	b = growBytes(b, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(v))
	}
	return b
}

// appendU64s bulk-encodes a u64 slice (gather version vectors).
func appendU64s(b []byte, vs []uint64) []byte {
	off := len(b)
	b = growBytes(b, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[off+8*i:], v)
	}
	return b
}

// growBytes extends b by n writable bytes, reallocating at most once.
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, 2*(len(b)+n))
	copy(nb, b)
	return nb
}

// decoder walks a payload; the first short read poisons every later call.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.b) {
		d.err = fmt.Errorf("shard: truncated payload (want %d bytes at offset %d of %d)", n, d.off, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) u8() byte {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (d *decoder) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *decoder) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) f32() float32 { return math.Float32frombits(d.u32()) }

// f32s decodes n float32s into dst (len n).
func (d *decoder) f32s(dst []float32) {
	s := d.take(4 * len(dst))
	if s == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(s[4*i:]))
	}
}

// u64s decodes n uint64s into dst (len n).
func (d *decoder) u64s(dst []uint64) {
	s := d.take(8 * len(dst))
	if s == nil {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(s[8*i:])
	}
}

// finish reports the latched error plus any trailing garbage.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("shard: %d trailing bytes in payload", len(d.b)-d.off)
	}
	return nil
}
