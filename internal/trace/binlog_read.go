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

	"repro/internal/metrics"
)

// ErrStop, returned by a Scan callback, ends the scan early without error.
var ErrStop = errors.New("stop scan")

// maxBlockLen caps per-block allocations while decoding, so a corrupt
// length field fails cleanly instead of attempting a huge allocation.
const maxBlockLen = 1 << 28

// maxLogNodes bounds the node IDs a world delta may name (worlds of up to
// ~4M nodes), so a corrupt ID cannot grow the predictor lanes without
// limit.
const maxLogNodes = 1 << 22

// RecordKind discriminates the records a scan yields.
type RecordKind uint8

const (
	RecordEvent  RecordKind = iota + 1 // Event is set
	RecordDelta                        // Delta is set
	RecordAnchor                       // Step and Anchor are set
)

// Record is one decoded log record. Delta's slices and Anchor alias reader
// scratch buffers: they are valid only for the duration of the callback and
// must be copied to be retained.
type Record struct {
	Kind   RecordKind
	Event  Event
	Delta  WorldDelta
	Step   int    // anchor records: the step the snapshot observes
	Anchor []byte // anchor records: serialised network.Snapshot JSON
}

// LogReader decodes a binary event log. Construct with OpenLog (file +
// sidecar index) or NewLogReader (any io.ReadSeeker; the block index is
// rebuilt by scanning frame headers). Not safe for concurrent use.
type LogReader struct {
	r         io.ReadSeeker
	hdr       Header
	headerEnd int64
	blocks    []BlockInfo
	indexed   bool

	gz      *gzip.Reader
	comp    []byte
	raw     []byte
	strings []string
	codec   DeltaCodec
	delta   WorldDelta

	mBlocks metrics.Counter
}

// NewLogReader parses the preamble of a binary log. Logs declaring a newer
// format version than LogVersion are rejected.
func NewLogReader(r io.ReadSeeker) (*LogReader, error) {
	cr := &countReader{r: r}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading log magic: %w", ErrCorrupt)
	}
	if magic != logMagic {
		return nil, fmt.Errorf("trace: bad log magic %q: %w", magic[:], ErrCorrupt)
	}
	ver, err := binary.ReadUvarint(cr)
	if err != nil {
		return nil, fmt.Errorf("trace: reading log version: %w", ErrCorrupt)
	}
	if ver > LogVersion {
		return nil, fmt.Errorf("trace: log format version %d is newer than supported %d", ver, LogVersion)
	}
	hlen, err := binary.ReadUvarint(cr)
	if err != nil || hlen > maxBlockLen {
		return nil, fmt.Errorf("trace: reading log header length: %w", ErrCorrupt)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(cr, hb); err != nil {
		return nil, fmt.Errorf("trace: truncated log header: %w", ErrCorrupt)
	}
	var hdr Header
	if err := json.Unmarshal(hb, &hdr); err != nil {
		return nil, fmt.Errorf("trace: decoding log header: %w", ErrCorrupt)
	}
	return &LogReader{r: r, hdr: hdr, headerEnd: cr.n}, nil
}

// OpenLog opens a binary log file, loading its sidecar index
// ("<path>.idx") when present and consistent; otherwise the index is
// rebuilt by scanning the file. The caller owns closing the reader.
func OpenLog(path string) (*LogReader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	lr, err := NewLogReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if b, err := os.ReadFile(path + ".idx"); err == nil {
		var sc sidecar
		if json.Unmarshal(b, &sc) == nil && sc.Version == LogVersion && sidecarSane(sc.Blocks, lr.headerEnd) {
			lr.blocks, lr.indexed = sc.Blocks, true
		}
	}
	return lr, f.Close, nil
}

// sidecarSane rejects index files that cannot match this log: offsets must
// start right after the header and ascend.
func sidecarSane(blocks []BlockInfo, headerEnd int64) bool {
	prev := headerEnd
	for i, b := range blocks {
		if i == 0 && b.Off != headerEnd {
			return false
		}
		if b.Off < prev || (b.Type != blockEvents && b.Type != blockAnchor) {
			return false
		}
		prev = b.Off
	}
	return true
}

// Header returns the log's self-describing header.
func (lr *LogReader) Header() Header { return lr.hdr }

// Instrument registers the reader's replay_blocks_read counter on r.
func (lr *LogReader) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	lr.mBlocks = r.Counter("replay_blocks_read")
}

// Blocks returns the log's block index, scanning frame headers to build it
// when no sidecar index was loaded.
func (lr *LogReader) Blocks() ([]BlockInfo, error) {
	if lr.indexed {
		return lr.blocks, nil
	}
	if _, err := lr.r.Seek(lr.headerEnd, io.SeekStart); err != nil {
		return nil, err
	}
	lr.blocks = lr.blocks[:0]
	off := lr.headerEnd
	for {
		fr, hlen, err := readFrame(lr.r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		lr.blocks = append(lr.blocks, BlockInfo{Off: off, Type: fr.typ, First: fr.first, Last: fr.last, Count: fr.count})
		off += hlen + int64(fr.compLen)
		if _, err := lr.r.Seek(int64(fr.compLen), io.SeekCurrent); err != nil {
			return nil, err
		}
	}
	lr.indexed = true
	return lr.blocks, nil
}

// blockFrame is one decoded block header.
type blockFrame struct {
	typ                byte
	first, last, count int
	rawLen, compLen    int
	crc                uint32
}

// countReader adapts an io.Reader to io.ByteReader while counting consumed
// bytes.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(c.r, b[:])
	if err == nil {
		c.n++
	}
	return b[0], err
}

// readFrame parses one block header from r. A clean EOF on the first byte
// means end of log; any other shortfall is corruption. Returns the frame
// and the number of header bytes consumed.
func readFrame(r io.Reader) (*blockFrame, int64, error) {
	cr := &countReader{r: r}
	m, err := cr.ReadByte()
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, fmt.Errorf("trace: reading block magic: %w", ErrCorrupt)
	}
	if m != blockMagic {
		return nil, 0, fmt.Errorf("trace: bad block magic 0x%02x: %w", m, ErrCorrupt)
	}
	typ, err := cr.ReadByte()
	if err != nil || (typ != blockEvents && typ != blockAnchor) {
		return nil, 0, fmt.Errorf("trace: bad block type: %w", ErrCorrupt)
	}
	var vals [5]uint64
	for i := range vals {
		v, err := binary.ReadUvarint(cr)
		if err != nil {
			return nil, 0, fmt.Errorf("trace: truncated block header: %w", ErrCorrupt)
		}
		vals[i] = v
	}
	first, last, count, rawLen, compLen := vals[0], vals[1], vals[2], vals[3], vals[4]
	if rawLen > maxBlockLen || compLen > maxBlockLen || first > last {
		return nil, 0, fmt.Errorf("trace: implausible block header: %w", ErrCorrupt)
	}
	var crcb [4]byte
	if _, err := io.ReadFull(cr, crcb[:]); err != nil {
		return nil, 0, fmt.Errorf("trace: truncated block header: %w", ErrCorrupt)
	}
	return &blockFrame{
		typ:     typ,
		first:   int(first),
		last:    int(last),
		count:   int(count),
		rawLen:  int(rawLen),
		compLen: int(compLen),
		crc:     binary.LittleEndian.Uint32(crcb[:]),
	}, cr.n, nil
}

// readBlockAt seeks to a block and returns its frame plus decompressed,
// CRC-verified payload (aliasing reader scratch; valid until the next
// readBlockAt call).
func (lr *LogReader) readBlockAt(off int64) (*blockFrame, []byte, error) {
	if _, err := lr.r.Seek(off, io.SeekStart); err != nil {
		return nil, nil, err
	}
	fr, _, err := readFrame(lr.r)
	if err == io.EOF {
		return nil, nil, fmt.Errorf("trace: block offset %d beyond log end: %w", off, ErrCorrupt)
	}
	if err != nil {
		return nil, nil, err
	}
	if cap(lr.comp) < fr.compLen {
		lr.comp = make([]byte, fr.compLen)
	}
	comp := lr.comp[:fr.compLen]
	if _, err := io.ReadFull(lr.r, comp); err != nil {
		return nil, nil, fmt.Errorf("trace: truncated block payload: %w", ErrCorrupt)
	}
	if got := crc32.ChecksumIEEE(comp); got != fr.crc {
		return nil, nil, fmt.Errorf("trace: block CRC mismatch (got %08x want %08x): %w", got, fr.crc, ErrCorrupt)
	}
	if lr.gz == nil {
		lr.gz = new(gzip.Reader)
	}
	if err := lr.gz.Reset(bytes.NewReader(comp)); err != nil {
		return nil, nil, fmt.Errorf("trace: block gzip header: %w", ErrCorrupt)
	}
	if cap(lr.raw) < fr.rawLen {
		lr.raw = make([]byte, fr.rawLen)
	}
	raw := lr.raw[:fr.rawLen]
	if _, err := io.ReadFull(lr.gz, raw); err != nil {
		return nil, nil, fmt.Errorf("trace: block decompression: %w", ErrCorrupt)
	}
	var one [1]byte
	if n, _ := lr.gz.Read(one[:]); n != 0 {
		return nil, nil, fmt.Errorf("trace: block longer than declared raw length: %w", ErrCorrupt)
	}
	lr.mBlocks.Inc()
	return fr, raw, nil
}

// Scan decodes every record in the log in order, invoking fn for each.
// fn returning ErrStop ends the scan cleanly; any other error aborts.
func (lr *LogReader) Scan(fn func(Record) error) error {
	blocks, err := lr.Blocks()
	if err != nil {
		return err
	}
	return lr.scanBlocks(blocks, fn)
}

// AnchorIndexBefore returns the index (into Blocks) of the last anchor
// block observing a step <= step, or -1 if none exists.
func (lr *LogReader) AnchorIndexBefore(step int) (int, error) {
	blocks, err := lr.Blocks()
	if err != nil {
		return 0, err
	}
	best := -1
	for i, b := range blocks {
		if b.Type == blockAnchor && b.First <= step {
			best = i
		}
	}
	return best, nil
}

// ScanFrom decodes records starting at block index from (which must be an
// anchor block or 0: the world-delta XOR chain resets there). fn returning
// ErrStop ends the scan cleanly.
func (lr *LogReader) ScanFrom(from int, fn func(Record) error) error {
	blocks, err := lr.Blocks()
	if err != nil {
		return err
	}
	if from < 0 || from > len(blocks) {
		return fmt.Errorf("trace: scan start block %d out of range [0,%d]", from, len(blocks))
	}
	if from > 0 && blocks[from].Type != blockAnchor {
		return fmt.Errorf("trace: scan must start at an anchor block (block %d is not)", from)
	}
	return lr.scanBlocks(blocks[from:], fn)
}

func (lr *LogReader) scanBlocks(blocks []BlockInfo, fn func(Record) error) error {
	lr.codec.Reset()
	for _, b := range blocks {
		fr, raw, err := lr.readBlockAt(b.Off)
		if err != nil {
			return err
		}
		switch fr.typ {
		case blockAnchor:
			lr.codec.Reset()
			if err := fn(Record{Kind: RecordAnchor, Step: fr.first, Anchor: raw}); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		case blockEvents:
			if err := lr.decodeEvents(fr, raw, fn); err != nil {
				if errors.Is(err, ErrStop) {
					return nil
				}
				return err
			}
		}
	}
	return nil
}

// decodeEvents walks one events block's payload, yielding records.
func (lr *LogReader) decodeEvents(fr *blockFrame, raw []byte, fn func(Record) error) error {
	cur := NewCursor(raw, ErrCorrupt)
	lr.strings = lr.strings[:0]
	step := fr.first
	for cur.Len() > 0 {
		tag := cur.Byte()
		step += int(cur.Zigzag())
		var r Record
		switch tag {
		case recEvent:
			r = Record{Kind: RecordEvent, Event: lr.decodeEvent(&cur, step)}
		case recDelta:
			lr.delta.Step = step
			lr.codec.Decode(&cur, &lr.delta, maxLogNodes)
			r = Record{Kind: RecordDelta, Delta: lr.delta}
		default:
			cur.Failf("unknown record tag %d", tag)
		}
		if err := cur.Err(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

func (lr *LogReader) decodeEvent(cur *Cursor, step int) Event {
	e := Event{Step: step}
	switch code := cur.Byte(); {
	case code == 0:
		e.Kind = Kind(lr.readString(cur))
	case int(code) < len(codeToKind):
		e.Kind = codeToKind[code]
	default:
		cur.Failf("unknown event kind code %d", code)
	}
	mask := cur.Byte()
	if mask&maskAgent != 0 {
		e.Agent = int32(cur.Zigzag())
	}
	if mask&maskNode != 0 {
		e.Node = int32(cur.Zigzag())
	}
	if mask&maskTo != 0 {
		e.To = int32(cur.Zigzag())
	}
	if mask&maskValue != 0 {
		e.Value = math.Float64frombits(cur.U64())
	}
	if mask&maskExtra != 0 {
		e.Extra = lr.readString(cur)
	}
	return e
}

// readString resolves a block-local interned string id, absorbing an
// inline definition when the id is new.
func (lr *LogReader) readString(cur *Cursor) string {
	id := cur.Uvarint()
	if cur.Err() != nil {
		return ""
	}
	if id < uint64(len(lr.strings)) {
		return lr.strings[id]
	}
	if id != uint64(len(lr.strings)) {
		cur.Failf("string id %d skips table (len %d)", id, len(lr.strings))
		return ""
	}
	b := cur.Take(int(cur.Uvarint()))
	if cur.Err() != nil {
		return ""
	}
	s := string(b)
	lr.strings = append(lr.strings, s)
	return s
}
