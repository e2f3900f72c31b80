package shard

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := appendU64(nil, 42)
	payload = appendU32(payload, 7)
	payload = appendI64(payload, -3)
	payload = appendF32(payload, 1.5)
	payload = appendF32s(payload, []float32{0.25, -2, float32(math.Inf(1))})

	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, opGather, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	op, got, err := readFrameInto(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if op != opGather {
		t.Fatalf("op = 0x%02x, want 0x%02x", op, opGather)
	}
	d := &decoder{b: got}
	if v := d.u64(); v != 42 {
		t.Fatalf("u64 = %d, want 42", v)
	}
	if v := d.u32(); v != 7 {
		t.Fatalf("u32 = %d, want 7", v)
	}
	if v := d.i64(); v != -3 {
		t.Fatalf("i64 = %d, want -3", v)
	}
	if v := d.f32(); v != 1.5 {
		t.Fatalf("f32 = %v, want 1.5", v)
	}
	fs := make([]float32, 3)
	d.f32s(fs)
	if fs[0] != 0.25 || fs[1] != -2 || !math.IsInf(float64(fs[2]), 1) {
		t.Fatalf("f32s = %v", fs)
	}
	if err := d.finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeFrame(bw, opPing, nil); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	op, payload, err := readFrameInto(bufio.NewReader(&buf), nil)
	if err != nil || op != opPing || len(payload) != 0 {
		t.Fatalf("readFrameInto = (0x%02x, %v, %v)", op, payload, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A frame header announcing more than maxFrame must be rejected
	// before any allocation of that size happens.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff}) // u32 length ≫ maxFrame
	buf.WriteByte(opPing)
	if _, _, err := readFrameInto(bufio.NewReader(&buf), nil); err == nil {
		t.Fatal("oversized frame accepted")
	}

	var w bytes.Buffer
	bw := bufio.NewWriter(&w)
	if err := writeFrame(bw, opPing, make([]byte, maxFrame+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := &decoder{b: appendU32(nil, 5)}
	_ = d.u64() // needs 8 bytes, only 4 present
	if err := d.finish(); err == nil {
		t.Fatal("short read not reported")
	}
	// The error is latched: further reads return zero values, not panics.
	if v := d.u32(); v != 0 {
		t.Fatalf("read after error = %d, want 0", v)
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	d := &decoder{b: appendU64(nil, 1)}
	_ = d.u32()
	err := d.finish()
	if err == nil {
		t.Fatal("trailing bytes not reported")
	}
	if !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("error %q does not mention trailing bytes", err)
	}
}

// TestRetiredOpsAnswerUnknown sends frames with the retired read-row
// (0x02) and version (0x05) op codes to a live server: each gets a
// status-1 "unknown op" reply, and the connection stays aligned, so a
// ping on it still succeeds.
func TestRetiredOpsAnswerUnknown(t *testing.T) {
	node, err := NewNode(NodeOptions{Rows: 16, Dim: 4, Uncoordinated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv, err := NewServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for _, op := range []byte{0x02, 0x05} {
		if err := writeFrame(conn, op, appendU64(nil, 3)); err != nil {
			t.Fatal(err)
		}
		status, payload, err := readFrameInto(br, nil)
		if err != nil {
			t.Fatalf("op 0x%02x: %v", op, err)
		}
		if status != statusErr || !strings.Contains(string(payload), "unknown op") {
			t.Fatalf("op 0x%02x: status %d %q, want status %d and an unknown-op message",
				op, status, payload, statusErr)
		}
	}
	if err := writeFrame(conn, opPing, nil); err != nil {
		t.Fatal(err)
	}
	if status, payload, err := readFrameInto(br, nil); err != nil || status != statusOK || len(payload) != 0 {
		t.Fatalf("ping after retired ops: status %d, %d-byte payload, err %v", status, len(payload), err)
	}
}
