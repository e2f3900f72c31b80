package runtime

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"frugal/internal/tensor"
)

// Checkpoint format: a small binary header, the body and (optionally)
// the optimizer-state slab, all little-endian. Save writes version 2: an
// int64 hot-slot capacity follows the header (0 for an untiered host, so
// LoadHost returns the flavor that was saved), then one encoded image
// per row in key order (AppendImage: a tier tag, then the 4·dim-byte
// float32 row when hot, or scale, zero and dim int8 codes when cold).
// Version 1 — no capacity, every row a bare float32 image — is still
// read: the same decoder takes an untagged image as hot.
//
// The serialization is canonical: it carries no slot numbers, so two
// hosts holding the same rows at the same tiers save identical bytes
// regardless of how their hot pools are laid out, and cold rows
// round-trip their codes verbatim (no requantize). Any body loads into
// either host flavor: a tiered host hands its hot slots to hot images
// in key order and quantizes the rest, and an untiered host takes cold
// images dequantized.
//
// Row versions and access frequencies are transient cache-coherence and
// placement state and are not persisted; caches start cold and the tier
// split re-adapts after a restore, which is always safe.
const (
	checkpointMagic    = uint32(0xF21A6A10)
	checkpointVersion  = uint32(2)
	checkpointUntagged = uint32(1) // read only
)

// Tier tags: the first byte of an encoded row image.
const (
	tagCold = byte(0)
	tagHot  = byte(1)
)

type checkpointHeader struct {
	Magic    uint32
	Version  uint32
	Rows     int64
	Dim      int32
	HasState int32
}

// MaxImageSize is the most bytes one encoded image of dimension dim
// takes: the tag and the larger of the two payloads.
func MaxImageSize(dim int) int { return 1 + max(4*dim, 8+dim) }

// AppendImage appends img's encoding to buf: the tier tag, then the
// float32 row (hot) or scale, zero and int8 codes (cold). This is the
// one row codec: checkpoint bodies and delta-log records both use it.
func AppendImage(buf []byte, img *RowImage) []byte {
	if img.Cold {
		buf = append(buf, tagCold)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(img.Scale))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(img.Zero))
		for _, c := range img.Q {
			buf = append(buf, byte(c))
		}
		return buf
	}
	buf = append(buf, tagHot)
	for _, v := range img.Row {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// ReadImage decodes one image from r into img, whose Row and Q are
// sized to the row dimension; r's buffer must hold MaxImageSize bytes.
// A cold image's codes land in Q and are dequantized into Row. An
// untagged stream (a version-1 checkpoint, a format-1 log segment) holds
// hot payloads only.
func ReadImage(r *bufio.Reader, tagged bool, img *RowImage) error {
	if err := readImage(r, tagged, img); err != nil || !img.Cold {
		return err
	}
	tensor.DequantizeRow(img.Q, img.Scale, img.Zero, img.Row)
	return nil
}

// readImage is ReadImage without the dequantize: a cold image's Row is
// left as it was.
func readImage(r *bufio.Reader, tagged bool, img *RowImage) error {
	var p []byte
	var err error
	tag := tagHot
	if tagged {
		if tag, err = r.ReadByte(); err != nil {
			return err
		}
	}
	row, q := img.Row, img.Q // locals: stores through row may alias img
	switch tag {
	case tagHot:
		if p, err = r.Peek(4 * len(row)); err != nil {
			return err
		}
		img.Cold, img.Scale, img.Zero = false, 0, 0
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
	case tagCold:
		if p, err = r.Peek(8 + len(q)); err != nil {
			return err
		}
		img.Cold = true
		img.Scale = math.Float32frombits(binary.LittleEndian.Uint32(p))
		img.Zero = math.Float32frombits(binary.LittleEndian.Uint32(p[4:]))
		for i := range q {
			q[i] = int8(p[8+i])
		}
	default:
		return fmt.Errorf("invalid tier tag %d", tag)
	}
	r.Discard(len(p))
	return nil
}

// Save writes the host parameter slab (and optimizer state, if enabled)
// as a checkpoint. Call only when no training is in flight — after Run
// returns, every flushed update is in the slab (DrainAll runs in Run's
// epilogue).
func (h *Host) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := checkpointHeader{Magic: checkpointMagic, Version: checkpointVersion, Rows: h.rows, Dim: int32(h.dim)}
	if h.state != nil {
		hdr.HasState = 1
	}
	var hotCap int64
	if h.tier != nil {
		hotCap = int64(h.tier.hotCap)
	}
	binary.Write(bw, binary.LittleEndian, hdr) // bufio keeps the first error for Flush
	binary.Write(bw, binary.LittleEndian, hotCap)
	buf := make([]byte, 0, MaxImageSize(h.dim))
	var img RowImage
	for key := uint64(0); key < uint64(h.rows); key++ {
		h.storedImage(key, &img)
		buf = AppendImage(buf[:0], &img)
		bw.Write(buf)
	}
	if h.state != nil {
		writeFloats(bw, h.state)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("runtime: checkpoint write: %w", err)
	}
	return nil
}

// storedImage points img at the key's storage in its current tier, with
// no copy and no lock: checkpoint save only, on a quiescent host.
func (h *Host) storedImage(key uint64, img *RowImage) {
	t := h.tier
	if t == nil {
		img.Cold, img.Row = false, h.row(key)
		return
	}
	if slot := t.tier[key].Load(); slot > 0 {
		img.Cold, img.Row = false, t.slotRow(slot-1)
		return
	}
	img.Cold, img.Scale, img.Zero, img.Q = true, t.qscale[key], t.qzero[key], t.qrow(key)
}

// readHeader reads and validates the checkpoint header, plus the
// version-2 hot capacity (0 for version 1), and returns r buffered for
// the body. When r can report its size — a Len() reader such as
// bytes.Reader, or a regular file — a header whose smallest possible
// body is larger than what remains is refused here, before any loader
// allocates the header's shape.
func readHeader(r io.Reader) (br *bufio.Reader, hdr checkpointHeader, hotCap int64, err error) {
	left, sized := remaining(r)
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, hdr, 0, fmt.Errorf("runtime: checkpoint header: %w", err)
	}
	if hdr.Magic != checkpointMagic {
		return nil, hdr, 0, fmt.Errorf("runtime: not a frugal checkpoint (magic %#x)", hdr.Magic)
	}
	if hdr.HasState != 0 && hdr.HasState != 1 {
		return nil, hdr, 0, fmt.Errorf("runtime: checkpoint state flag %d, want 0 or 1", hdr.HasState)
	}
	if err := checkShape(hdr.Rows, int(hdr.Dim)); err != nil {
		return nil, hdr, 0, fmt.Errorf("runtime: checkpoint shape: %w", err)
	}
	n := int64(binary.Size(hdr))
	row := 4 * int64(hdr.Dim) // smallest encoded row
	switch hdr.Version {
	case checkpointUntagged:
	case checkpointVersion:
		if err := binary.Read(r, binary.LittleEndian, &hotCap); err != nil {
			return nil, hdr, 0, fmt.Errorf("runtime: checkpoint hot capacity: %w", err)
		}
		if hotCap < 0 || hotCap > hdr.Rows {
			return nil, hdr, 0, fmt.Errorf("runtime: checkpoint hot capacity %d outside [0, %d]", hotCap, hdr.Rows)
		}
		n += 8
		row = 1 + min(row, 8+int64(hdr.Dim))
	default:
		return nil, hdr, 0, fmt.Errorf("runtime: unsupported checkpoint version %d", hdr.Version)
	}
	if hdr.HasState == 1 {
		row += 4
	}
	if body := hdr.Rows * row; sized && body > left-n {
		return nil, hdr, 0, fmt.Errorf("runtime: checkpoint body needs at least %d bytes, %d remain", body, left-n)
	}
	return bufio.NewReaderSize(r, max(1<<20, MaxImageSize(int(hdr.Dim)))), hdr, hotCap, nil
}

// remaining reports how many bytes r has left, when it can tell.
func remaining(r io.Reader) (n int64, ok bool) {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len()), true
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - off, true
	}
	return 0, false
}

// loadBody fills the host's storage from the checkpoint body. On a
// tiered host the images' tier tags dictate placement: the hot pool is
// reset and slots go to hot images in key order (hot images beyond the
// pool's capacity — a v1 body, or a smaller pool than the file's —
// quantize into the cold tail). On an untiered host every row lands in
// the slab, cold ones dequantized.
func (h *Host) loadBody(r *bufio.Reader, hdr checkpointHeader) error {
	t := h.tier
	img := RowImage{Row: make([]float32, h.dim), Q: make([]int8, h.dim)}
	read := ReadImage
	if t != nil {
		t.resetCold()
		read = readImage // cold codes stay codes
	}
	for key := uint64(0); key < uint64(h.rows); key++ {
		// Decode straight into storage: the slab row when untiered, the
		// code row when tiered (a hot image is then copied to its slot).
		if t == nil {
			img.Row = h.row(key)
		} else {
			img.Q = t.qrow(key)
		}
		if err := read(r, hdr.Version == checkpointVersion, &img); err != nil {
			return fmt.Errorf("runtime: checkpoint row %d: %w", key, err)
		}
		if t != nil {
			t.place(key, &img)
		}
	}
	if hdr.HasState == 1 {
		h.EnableOptimizerState()
		return readFloats(r, h.state)
	}
	return nil
}

// Load restores a checkpoint into the host slab. The checkpoint's shape
// must match exactly; a checkpoint with optimizer state enables the
// state slab. Call before Run.
func (h *Host) Load(r io.Reader) error {
	br, hdr, _, err := readHeader(r)
	if err != nil {
		return err
	}
	if hdr.Rows != h.rows || int(hdr.Dim) != h.dim {
		return fmt.Errorf("runtime: checkpoint shape %dx%d does not match host %dx%d",
			hdr.Rows, hdr.Dim, h.rows, h.dim)
	}
	return h.loadBody(br, hdr)
}

// LoadHost reads a checkpoint and returns a freshly allocated Host shaped
// by its header — checkpoint-only serving, where no training Config
// exists to dictate the shape. A checkpoint saved from a tiered host
// reproduces a tiered host with the file's hot capacity and placement.
//
// The header's shape is allocated before the body is read. When r can
// report its size (a Len() reader or a regular file), a header that
// claims more rows than the input can hold is refused first; an opaque
// stream is trusted for its size.
func LoadHost(r io.Reader) (*Host, error) {
	br, hdr, hotCap, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	var h *Host
	if hotCap > 0 {
		h, err = newTieredHost(hdr.Rows, int(hdr.Dim), int(hotCap))
	} else {
		h, err = NewHost(hdr.Rows, int(hdr.Dim))
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint shape: %w", err)
	}
	if err := h.loadBody(br, hdr); err != nil {
		return nil, err
	}
	return h, nil
}

// LoadHostTiered reads a checkpoint of either version into a freshly
// allocated tiered host with the given hot fraction — checkpoint-only
// serving on a memory budget, where the caller wants the quantized cold
// tail regardless of how the table was trained. The file's tier tags
// are kept; hot images beyond this host's capacity (an untiered save's
// tail) quantize on entry. Its size check is LoadHost's.
func LoadHostTiered(r io.Reader, hotFraction float64) (*Host, error) {
	br, hdr, _, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	h, err := NewTieredHost(hdr.Rows, int(hdr.Dim), hotFraction)
	if err != nil {
		return nil, fmt.Errorf("runtime: checkpoint shape: %w", err)
	}
	if err := h.loadBody(br, hdr); err != nil {
		return nil, err
	}
	return h, nil
}

// writeFloats writes xs little-endian; bw keeps the first error for Flush.
func writeFloats(bw *bufio.Writer, xs []float32) {
	for _, v := range xs {
		bw.Write(binary.LittleEndian.AppendUint32(bw.AvailableBuffer(), math.Float32bits(v)))
	}
}

func readFloats(r io.Reader, xs []float32) error {
	buf := make([]byte, 4*4096)
	for off := 0; off < len(xs); off += 4096 {
		end := off + 4096
		if end > len(xs) {
			end = len(xs)
		}
		n := (end - off) * 4
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return fmt.Errorf("runtime: checkpoint read: %w", err)
		}
		for i := off; i < end; i++ {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[(i-off)*4:]))
		}
	}
	return nil
}
