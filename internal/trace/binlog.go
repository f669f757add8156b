// Binary event-log persistence: a compact framed encoding of the trace
// event stream, with embedded world-snapshot anchors and per-step world
// deltas, wrapped in per-block gzip compression. The format is the durable
// counterpart of the JSONL Writer (which stays the human-readable debug
// format): write a run once, analyse it forever — replay the measurement
// curves, rebuild summaries, or reconstruct the world at any recorded step
// without re-simulating.
//
// File layout:
//
//	magic "AMESHLOG" | uvarint version | uvarint len | header JSON
//	block*                         (events/deltas or snapshot anchors)
//
// Each block is independently framed:
//
//	0xB1 | type | uvarint first | uvarint last | uvarint count
//	     | uvarint rawLen | uvarint compLen | crc32(comp) LE | comp bytes
//
// where comp is the gzip of the raw record payload and first/last bound the
// steps the block covers. A sidecar index (written by FileLog as
// "<path>.idx") lists every block's offset and step range so readers can
// seek; readers fall back to a header-walking scan when it is missing.
//
// Event records use varint-delta steps, a one-byte kind code, a field
// presence mask, and per-block string interning for Extra labels, so blocks
// are self-contained and decodable from any offset. Every record starts
// with a tag byte (event or world delta) and the zigzag step delta. A
// world-delta record's body is the shared world-delta codec's (codec.go):
// changed positions and radio ranges as predictor-XORed float64 bits
// (columnar, so the shared high bytes compress well) plus the fault
// transition. The Trajectory container in the network package carries the
// same body. The predictor chain resets at every snapshot anchor, which
// keeps anchor-rooted tails self-contained — exactly the access path
// offline replay uses.
package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/metrics"
)

// LogVersion is the binary log format version this package writes. Readers
// reject files declaring a newer version instead of misparsing them.
const LogVersion = 1

var logMagic = [8]byte{'A', 'M', 'E', 'S', 'H', 'L', 'O', 'G'}

// ErrCorrupt tags every structural decoding failure — truncated block, CRC
// mismatch, bad varint, string-table violation. Test with errors.Is.
var ErrCorrupt = errors.New("corrupt log")

// Block types.
const (
	blockEvents byte = 1 // event + world-delta records
	blockAnchor byte = 2 // one full world snapshot (JSON payload)
)

const blockMagic byte = 0xB1

// Record tags inside an events block.
const (
	recEvent byte = 0
	recDelta byte = 1
)

// flushRawLen is the raw-payload size at which the writer seals a block.
const flushRawLen = 32 << 10

// Header is the self-describing preamble of a binary log.
type Header struct {
	// Version echoes the format version (the framed version is
	// authoritative; this copy makes the JSON self-contained).
	Version int `json:"version"`
	// BaseSeed is the root seed of the recorded run.
	BaseSeed uint64 `json:"base_seed"`
	// ConfigHash is the FNV-64a hash of Config, so tooling can cheaply
	// detect whether two logs came from the same scenario configuration.
	ConfigHash uint64 `json:"config_hash,omitempty"`
	// Config is an opaque scenario description (see replay.RunMeta).
	Config json.RawMessage `json:"config,omitempty"`
}

// ConfigHashOf returns the FNV-64a hash of a header config blob.
func ConfigHashOf(config []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range config {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// BlockInfo locates one block: its byte offset from the start of the file,
// type, covered step range, and record count.
type BlockInfo struct {
	Off   int64 `json:"off"`
	Type  byte  `json:"type"`
	First int   `json:"first"`
	Last  int   `json:"last"`
	Count int   `json:"count"`
}

// kind <-> wire code. Code 0 means "custom kind", carried as an interned
// string so third-party kinds survive the round trip.
var kindToCode = map[Kind]byte{
	KindMove:    1,
	KindMeet:    2,
	KindDeposit: 3,
	KindMeasure: 4,
	KindFinish:  5,
	KindFault:   6,
}

var codeToKind = [...]Kind{1: KindMove, 2: KindMeet, 3: KindDeposit, 4: KindMeasure, 5: KindFinish, 6: KindFault}

// Event field presence mask bits.
const (
	maskAgent = 1 << iota
	maskNode
	maskTo
	maskValue
	maskExtra
)

// LogWriter streams events, world deltas, and snapshot anchors into the
// compact binary format. It implements Tracer and WorldSink. Like the JSONL
// Writer it is error-latched: the first write error turns every subsequent
// Emit into a no-op and is reported by Close. Construct with NewLogWriter
// (any io.Writer) or CreateLog (file plus sidecar index).
type LogWriter struct {
	mu  sync.Mutex
	w   io.Writer
	off int64
	err error

	typ      byte // block type being accumulated (blockEvents)
	raw      []byte
	count    int
	first    int
	last     int
	prevStep int
	strings  map[string]int

	codec DeltaCodec

	index  []BlockInfo
	events int

	gz    *gzip.Writer
	gzBuf bytes.Buffer

	mEvents metrics.Counter
	mBytes  metrics.Counter
	mBlocks metrics.Counter
}

// NewLogWriter writes the file preamble for hdr and returns the writer.
// hdr.Version is stamped to LogVersion and hdr.ConfigHash is derived from
// hdr.Config when unset.
func NewLogWriter(w io.Writer, hdr Header) (*LogWriter, error) {
	hdr.Version = LogVersion
	if hdr.ConfigHash == 0 && len(hdr.Config) > 0 {
		hdr.ConfigHash = ConfigHashOf(hdr.Config)
	}
	hb, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("trace: encoding log header: %w", err)
	}
	lw := &LogWriter{w: w, strings: make(map[string]int)}
	var pre []byte
	pre = append(pre, logMagic[:]...)
	pre = binary.AppendUvarint(pre, LogVersion)
	pre = binary.AppendUvarint(pre, uint64(len(hb)))
	pre = append(pre, hb...)
	if err := lw.write(pre); err != nil {
		return nil, err
	}
	return lw, nil
}

// Instrument registers the writer's counters on r: trace_events_total,
// trace_bytes_written, and trace_blocks_flushed. Instruments sit entirely
// outside the simulation, so attaching a registry cannot change either
// seeded results or the log bytes.
func (lw *LogWriter) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.mEvents = r.Counter("trace_events_total")
	lw.mBytes = r.Counter("trace_bytes_written")
	lw.mBlocks = r.Counter("trace_blocks_flushed")
	lw.mBytes.Add(uint64(lw.off))
}

func (lw *LogWriter) write(b []byte) error {
	n, err := lw.w.Write(b)
	lw.off += int64(n)
	lw.mBytes.Add(uint64(n))
	if err != nil && lw.err == nil {
		lw.err = err
	}
	return err
}

// beginRecord opens (or continues) an events block and encodes the step
// delta shared by every record type.
func (lw *LogWriter) beginRecord(tag byte, step int) {
	if lw.count == 0 {
		lw.typ = blockEvents
		lw.first = step
		lw.prevStep = step
	}
	lw.raw = append(lw.raw, tag)
	lw.raw = appendZigzag(lw.raw, int64(step-lw.prevStep))
	lw.prevStep = step
	if step > lw.last || lw.count == 0 {
		lw.last = step
	}
	if step < lw.first {
		lw.first = step
	}
	lw.count++
}

// Emit encodes the event. Implements Tracer; errors latch the writer and
// surface at Close.
func (lw *LogWriter) Emit(e Event) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return
	}
	lw.beginRecord(recEvent, e.Step)
	code := kindToCode[e.Kind]
	lw.raw = append(lw.raw, code)
	if code == 0 {
		lw.intern(string(e.Kind))
	}
	var mask byte
	if e.Agent != 0 {
		mask |= maskAgent
	}
	if e.Node != 0 {
		mask |= maskNode
	}
	if e.To != 0 {
		mask |= maskTo
	}
	if e.Value != 0 {
		mask |= maskValue
	}
	if e.Extra != "" {
		mask |= maskExtra
	}
	lw.raw = append(lw.raw, mask)
	if mask&maskAgent != 0 {
		lw.raw = appendZigzag(lw.raw, int64(e.Agent))
	}
	if mask&maskNode != 0 {
		lw.raw = appendZigzag(lw.raw, int64(e.Node))
	}
	if mask&maskTo != 0 {
		lw.raw = appendZigzag(lw.raw, int64(e.To))
	}
	if mask&maskValue != 0 {
		lw.raw = binary.LittleEndian.AppendUint64(lw.raw, math.Float64bits(e.Value))
	}
	if mask&maskExtra != 0 {
		lw.intern(e.Extra)
	}
	lw.events++
	lw.mEvents.Inc()
	lw.maybeFlushLocked()
}

// intern appends the block-local string id for s, defining it inline (id
// followed by length + bytes) on first use within the block.
func (lw *LogWriter) intern(s string) {
	id, ok := lw.strings[s]
	if !ok {
		id = len(lw.strings)
		lw.strings[s] = id
		lw.raw = binary.AppendUvarint(lw.raw, uint64(id))
		lw.raw = binary.AppendUvarint(lw.raw, uint64(len(s)))
		lw.raw = append(lw.raw, s...)
		return
	}
	lw.raw = binary.AppendUvarint(lw.raw, uint64(id))
}

// EmitWorld encodes one step's world delta. Implements WorldSink.
func (lw *LogWriter) EmitWorld(d WorldDelta) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return
	}
	lw.beginRecord(recDelta, d.Step)
	lw.raw = lw.codec.Append(lw.raw, &d)
	lw.maybeFlushLocked()
}

// EmitAnchor seals the current block and writes a snapshot anchor block.
// Anchors reset the world-delta XOR chain, so a reader can decode the delta
// tail starting from any anchor without earlier context. Implements
// WorldSink.
func (lw *LogWriter) EmitAnchor(step int, snapshot []byte) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.err != nil {
		return
	}
	lw.flushLocked()
	lw.codec.Reset()
	lw.writeBlockLocked(blockAnchor, step, step, 1, snapshot)
}

// Count returns the number of events written (world deltas and anchors are
// not events).
func (lw *LogWriter) Count() int {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.events
}

// Index returns the blocks written so far (sealed blocks only).
func (lw *LogWriter) Index() []BlockInfo {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return append([]BlockInfo(nil), lw.index...)
}

func (lw *LogWriter) maybeFlushLocked() {
	if len(lw.raw) >= flushRawLen {
		lw.flushLocked()
	}
}

func (lw *LogWriter) flushLocked() {
	if lw.count == 0 {
		return
	}
	lw.writeBlockLocked(lw.typ, lw.first, lw.last, lw.count, lw.raw)
	lw.raw = lw.raw[:0]
	lw.count = 0
	clear(lw.strings)
}

func (lw *LogWriter) writeBlockLocked(typ byte, first, last, count int, raw []byte) {
	off := lw.off
	lw.gzBuf.Reset()
	if lw.gz == nil {
		lw.gz, _ = gzip.NewWriterLevel(&lw.gzBuf, gzip.DefaultCompression)
	} else {
		lw.gz.Reset(&lw.gzBuf)
	}
	if _, err := lw.gz.Write(raw); err != nil {
		if lw.err == nil {
			lw.err = err
		}
		return
	}
	if err := lw.gz.Close(); err != nil {
		if lw.err == nil {
			lw.err = err
		}
		return
	}
	comp := lw.gzBuf.Bytes()
	var hdr []byte
	hdr = append(hdr, blockMagic, typ)
	hdr = binary.AppendUvarint(hdr, uint64(first))
	hdr = binary.AppendUvarint(hdr, uint64(last))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	hdr = binary.AppendUvarint(hdr, uint64(len(raw)))
	hdr = binary.AppendUvarint(hdr, uint64(len(comp)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(comp))
	if err := lw.write(hdr); err != nil {
		return
	}
	if err := lw.write(comp); err != nil {
		return
	}
	lw.index = append(lw.index, BlockInfo{Off: off, Type: typ, First: first, Last: last, Count: count})
	lw.mBlocks.Inc()
}

// Flush seals and writes the current partial block.
func (lw *LogWriter) Flush() error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	lw.flushLocked()
	return lw.err
}

// Close seals the final block and returns the first error the writer
// encountered. The writer must not be used after Close.
func (lw *LogWriter) Close() error {
	return lw.Flush()
}

// FileLog is a LogWriter backed by a file plus its sidecar block index
// ("<path>.idx"), written on Close.
type FileLog struct {
	*LogWriter
	f       *os.File
	idxPath string
}

// CreateLog creates path (truncating) and returns a FileLog writing hdr.
func CreateLog(path string, hdr Header) (*FileLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	lw, err := NewLogWriter(f, hdr)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileLog{LogWriter: lw, f: f, idxPath: path + ".idx"}, nil
}

// sidecar is the JSON shape of the "<path>.idx" index file.
type sidecar struct {
	Version int         `json:"version"`
	Blocks  []BlockInfo `json:"blocks"`
}

// Close seals the log, writes the sidecar index, and closes the file. The
// log file itself stays fully readable without the sidecar (readers fall
// back to scanning); a failed index write therefore only degrades seeking.
func (l *FileLog) Close() error {
	err := l.LogWriter.Close()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		b, merr := json.MarshalIndent(sidecar{Version: LogVersion, Blocks: l.LogWriter.index}, "", " ")
		if merr == nil {
			merr = os.WriteFile(l.idxPath, b, 0o644)
		}
		err = merr
	}
	return err
}

// --- varint helpers -------------------------------------------------------

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}
