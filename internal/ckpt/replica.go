package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"frugal/internal/obs"
	"frugal/internal/runtime"
)

// Replica is the one log replayer: it turns a log directory into a host
// carrying the primary's row bytes, row versions and per-row safe steps
// through the last applied segment. Reconstruct, the writer's compaction
// shadow and the serve follower all apply the log through it.
//
// CatchUp and Salvage mutate the replica and must not run concurrently
// with each other; Host, Staleness, Watermark, Seq and Replication are
// safe from any goroutine.
type Replica struct {
	dir  string
	host *runtime.Host
	safe []atomic.Int64 // per-row safe step; -1: nothing beyond the base's init guaranteed
	wm   atomic.Int64   // watermark of the last applied segment or sidecar
	seq  atomic.Int64   // last applied segment; a base counts as applied through its seq
	obs  *obs.ReplicaObs
}

// OpenReplica loads the highest base of the log in dir, with its sidecar
// read straight into the host's versions and the safe-step vector. It
// applies no segment: CatchUp does.
func OpenReplica(dir string) (*Replica, error) {
	st, err := ListDir(dir)
	if err != nil {
		return nil, err
	}
	return openBase(dir, st)
}

func openBase(dir string, st DirState) (*Replica, error) {
	f, err := os.Open(st.BasePath)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	host, err := runtime.LoadHost(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	r := &Replica{dir: dir, host: host, safe: make([]atomic.Int64, host.Rows()), obs: obs.NewReplicaObs()}
	r.seq.Store(st.BaseSeq)
	r.wm.Store(-1)
	if st.MetaPath == "" {
		// Base 0 has no sidecar: nothing has been flushed to its slab.
		for i := range r.safe {
			r.safe[i].Store(-1)
		}
		return r, nil
	}
	mf, err := os.Open(st.MetaPath)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	defer mf.Close()
	wm, err := readMeta(mf, host, r.safe)
	if err != nil {
		return nil, fmt.Errorf("ckpt: sidecar %s: %w", st.MetaPath, err)
	}
	r.wm.Store(wm)
	return r, nil
}

// Host returns the replica slab. Serve it while CatchUp runs: every apply
// is a row-locked, last-writer-wins Host.RestoreRow.
func (r *Replica) Host() *runtime.Host { return r.host }

// Watermark returns the primary's committed-step watermark through the
// last applied segment (-1 before any).
func (r *Replica) Watermark() int64 { return r.wm.Load() }

// Seq returns the last applied segment's sequence number.
func (r *Replica) Seq() int64 { return r.seq.Load() }

// Replication snapshots the apply counters.
func (r *Replica) Replication() obs.ReplicaSnapshot { return r.obs.Snapshot() }

// Staleness reports how many gate steps the replica's copy of key may
// trail the applied watermark: watermark − the key's safe step, never
// below 0. It is one-sided: the row can only be fresher. key must lie
// below Host().Rows().
func (r *Replica) Staleness(key uint64) (lag, watermark int64) {
	wm := r.wm.Load()
	lag = wm - r.safe[key].Load()
	if lag < 0 {
		lag = 0
	}
	return lag, wm
}

// CatchUp applies every sealed segment past the replica's position. When
// compaction has overtaken it, the newer base is folded into the same
// host first, so a server over Host never sees the slab swapped.
func (r *Replica) CatchUp() error {
	if err := r.catchUp(); err != nil {
		// The compactor may have deleted a segment between the listing and
		// the read; the re-list sees the newer base that replaced it.
		return r.catchUp()
	}
	return nil
}

func (r *Replica) catchUp() error {
	st, err := ListDir(r.dir)
	if err != nil {
		return err
	}
	if st.BaseSeq > r.seq.Load() {
		if err := r.fold(st); err != nil {
			return err
		}
	}
	for _, seg := range st.Segments {
		if seg.Seq <= r.seq.Load() {
			continue
		}
		var n int64
		wm, err := ReadSegment(seg.Path, r.host.Rows(), r.host.Dim(), func(rec *Record) error {
			r.apply(rec.Key, &rec.RowImage, rec.SafeStep)
			n++
			return nil
		})
		if err != nil {
			return err
		}
		r.advance(wm)
		r.seq.Store(seg.Seq)
		r.obs.Segment(n)
	}
	return nil
}

// fold merges a newer base into the replica through the same
// last-writer-wins apply the segments use. The base's tier tags travel
// with each captured image, so a tiered replica is not reshuffled.
func (r *Replica) fold(st DirState) error {
	fresh, err := openBase(r.dir, st)
	if err != nil {
		return err
	}
	if fresh.host.Rows() != r.host.Rows() || fresh.host.Dim() != r.host.Dim() {
		return fmt.Errorf("ckpt: base %d is %dx%d, replica %dx%d",
			st.BaseSeq, fresh.host.Rows(), fresh.host.Dim(), r.host.Rows(), r.host.Dim())
	}
	img := runtime.RowImage{Row: make([]float32, r.host.Dim()), Q: make([]int8, r.host.Dim())}
	for k := range r.safe {
		fresh.host.CaptureRow(uint64(k), &img)
		r.apply(uint64(k), &img, fresh.safe[k].Load())
	}
	r.advance(fresh.wm.Load())
	r.seq.Store(st.BaseSeq)
	r.obs.Resync()
	return nil
}

// Salvage applies the complete record prefix of an unsealed (.open)
// segment, the one file a primary that died mid-sweep leaves behind, and
// counts them in Replication. The watermark does not move: the sweep
// never finished, so its header tag is not trusted.
func (r *Replica) Salvage() error {
	st, err := ListDir(r.dir)
	if err != nil || st.OpenPath == "" {
		return nil
	}
	n, err := Salvage(st.OpenPath, r.host.Rows(), r.host.Dim(), func(rec *Record) error {
		r.apply(rec.Key, &rec.RowImage, rec.SafeStep)
		return nil
	})
	r.obs.Salvage(n)
	return err
}

// apply installs one row image in its tier (idempotent, last-writer-wins:
// Host.RestoreRow) and raises the key's safe step.
func (r *Replica) apply(key uint64, img *runtime.RowImage, safe int64) {
	r.host.RestoreRow(key, img)
	if safe > r.safe[key].Load() {
		r.safe[key].Store(safe)
	}
}

func (r *Replica) advance(wm int64) {
	if wm > r.wm.Load() {
		r.wm.Store(wm)
	}
}

// Reconstruct rebuilds the slab a log directory describes: the highest
// base with its sidecar, and every later sealed segment replayed over it
// in order. The result carries the primary's row bytes and row versions
// at the last sweep (after a graceful shutdown: the final state).
func Reconstruct(dir string) (*runtime.Host, error) {
	r, err := OpenReplica(dir)
	if err != nil {
		return nil, err
	}
	if err := r.CatchUp(); err != nil {
		return nil, err
	}
	return r.host, nil
}

// The sidecar is a base's per-row replication state that the slab codec
// does not carry: a header (magic, version, rows, the watermark the base
// is complete through), then every row's safe step, then every row's
// version, all little-endian.
type metaHeader struct {
	Magic, Version uint32
	Rows           int64
	Watermark      int64
}

// writeMeta streams the replica's sidecar to w.
func (r *Replica) writeMeta(w io.Writer) error {
	hdr := metaHeader{metaMagic, metaVer, r.host.Rows(), r.wm.Load()}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := writeWords(w, len(r.safe), func(k int) uint64 { return uint64(r.safe[k].Load()) }); err != nil {
		return err
	}
	return writeWords(w, len(r.safe), func(k int) uint64 { return r.host.Version(uint64(k)) })
}

// readMeta reads a sidecar into host's versions and safe (one entry per
// host row) and returns its watermark. It allocates nothing: a header
// whose row count differs from the host's is refused before the body is
// read.
func readMeta(r io.Reader, host *runtime.Host, safe []atomic.Int64) (watermark int64, err error) {
	var hdr metaHeader
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return 0, fmt.Errorf("header: %w", err)
	}
	if hdr.Magic != metaMagic || hdr.Version != metaVer {
		return 0, fmt.Errorf("not a ckpt sidecar (magic %#x, version %d)", hdr.Magic, hdr.Version)
	}
	if hdr.Rows != host.Rows() {
		return 0, fmt.Errorf("sidecar covers %d rows, want %d", hdr.Rows, host.Rows())
	}
	if err := readWords(r, len(safe), func(k int, v uint64) { safe[k].Store(int64(v)) }); err != nil {
		return 0, fmt.Errorf("body: %w", err)
	}
	if err := readWords(r, len(safe), func(k int, v uint64) { host.SetVersion(uint64(k), v) }); err != nil {
		return 0, fmt.Errorf("body: %w", err)
	}
	return hdr.Watermark, nil
}

// wordChunk is how many little-endian words writeWords and readWords
// move per call: a fixed stack buffer, so neither allocates.
const wordChunk = 1024

// writeWords writes word(0..n-1) as little-endian uint64s.
func writeWords(w io.Writer, n int, word func(int) uint64) error {
	var buf [8 * wordChunk]byte
	for i := 0; i < n; i += wordChunk {
		c := min(n-i, wordChunk)
		for j := 0; j < c; j++ {
			binary.LittleEndian.PutUint64(buf[8*j:], word(i+j))
		}
		if _, err := w.Write(buf[:8*c]); err != nil {
			return err
		}
	}
	return nil
}

// readWords reads n little-endian uint64s through set.
func readWords(r io.Reader, n int, set func(int, uint64)) error {
	var buf [8 * wordChunk]byte
	for i := 0; i < n; i += wordChunk {
		c := min(n-i, wordChunk)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return err
		}
		for j := 0; j < c; j++ {
			set(i+j, binary.LittleEndian.Uint64(buf[8*j:]))
		}
	}
	return nil
}
