package trace

// The world-delta codec: the one encoding of a step's world change that both
// containers carry — the binary event log (LogWriter/LogReader) and the
// network package's in-memory Trajectory. It has four parts:
//
//   - Cursor, the bounds-checking payload reader with a latched error;
//   - the ascending node-ID list codec (appendIDs / Cursor.ids);
//   - lanes, the float predictor (XOR against 2·v1 − v2 per node);
//   - DeltaCodec, which encodes and decodes one WorldDelta record body.
//
// Record body layout (every field always present):
//
//	ids    Nodes           changed positions
//	uvarint×len(Nodes)     X residuals, then Y residuals
//	ids    RangeNodes      changed radio ranges
//	uvarint×len(RangeNodes) range residuals
//	byte   fault           0, or 1 followed by:
//	         ids Dead | ids DownGateways | byte partition (0, or 1 + u64 LE PartitionX)
//
// where ids is a uvarint count followed by the first ID and then the gaps
// between consecutive IDs. Each container frames records its own way and
// decides when the predictor chain resets (DeltaCodec.Reset).

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Cursor is the bounds-checking reader the world-delta containers walk
// their payloads with. The first failure latches: every later read returns
// a zero value and Err reports that first failure, so decoders read field
// after field and check once.
type Cursor struct {
	b       []byte
	pos     int
	err     error
	corrupt error
}

// NewCursor returns a cursor over b whose failures wrap corrupt (the
// container's corruption sentinel, such as ErrCorrupt).
func NewCursor(b []byte, corrupt error) Cursor {
	return Cursor{b: b, corrupt: corrupt}
}

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Len returns how many payload bytes are left unread.
func (c *Cursor) Len() int { return len(c.b) - c.pos }

// Failf latches a corruption error unless one is latched already.
func (c *Cursor) Failf(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format+": %w", append(args, c.corrupt)...)
	}
}

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.pos:])
	if n <= 0 {
		c.Failf("bad varint at payload offset %d", c.pos)
		return 0
	}
	c.pos += n
	return v
}

// Zigzag reads one zigzag-coded signed varint.
func (c *Cursor) Zigzag() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.err != nil {
		return 0
	}
	if c.pos >= len(c.b) {
		c.Failf("truncated payload at offset %d", c.pos)
		return 0
	}
	v := c.b[c.pos]
	c.pos++
	return v
}

// U64 reads one little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Take returns the next n bytes (aliasing the payload, capacity capped at
// n), or nil after a failure.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b)-c.pos {
		c.Failf("truncated %d-byte field at payload offset %d", n, c.pos)
		return nil
	}
	v := c.b[c.pos : c.pos+n : c.pos+n]
	c.pos += n
	return v
}

// appendIDs encodes a strictly ascending ID list as a count plus the first
// ID and then the gaps between consecutive IDs.
func appendIDs(b []byte, ids []int32) []byte {
	b = binary.AppendUvarint(b, uint64(len(ids)))
	prev := int32(0)
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id-prev))
		prev = id
	}
	return b
}

// ids decodes a list written by appendIDs into dst, requiring the IDs to be
// strictly ascending and below limit.
func (c *Cursor) ids(dst []int32, limit int) []int32 {
	n := c.Uvarint()
	// Each ID takes at least one byte, and a strictly ascending list below
	// limit holds at most limit IDs.
	if n > uint64(c.Len()) || n > uint64(limit) {
		c.Failf("id list of %d entries overruns the payload or the %d-node bound", n, limit)
		return dst
	}
	id := int64(0)
	for i := uint64(0); i < n && c.err == nil; i++ {
		gap := c.Uvarint()
		if i > 0 && gap == 0 {
			c.Failf("id list not strictly ascending at payload offset %d", c.pos)
			break
		}
		if gap >= uint64(limit) || id+int64(gap) >= int64(limit) {
			c.Failf("id %d+%d out of range [0,%d)", id, gap, limit)
			break
		}
		id += int64(gap)
		dst = append(dst, int32(id))
	}
	return dst
}

// laneState is one node's predictor context in a float lane: the bit
// patterns of its last two values and how many the chain has seen.
type laneState struct {
	v1, v2 uint64 // most recent, second most recent
	seen   uint8  // saturates at 2
}

// lanes is the float predictor of one per-node stream (x, y, or range).
// Values are XORed against a linear extrapolation from the node's two
// previous values (2*v1 - v2): mobility is piecewise constant-velocity and
// battery drain is linear, so the prediction is exact up to FP rounding
// and the residual has only a handful of low bits set — which the uvarint
// wire encoding then stores in 1-3 bytes instead of 8. The lanes grow to
// the largest node ID seen.
type lanes []laneState

// predict returns the predicted bit pattern for node u's next value: 0
// (absolute encoding) before any sample, the previous value after one, and
// the linear extrapolation from then on. Both 2*v1 and the subtraction are
// single correctly-rounded IEEE ops, so encoder and decoder compute
// bit-identical predictions on any platform.
func (l *lanes) predict(u int) uint64 {
	l.grow(u + 1)
	st := (*l)[u]
	switch st.seen {
	case 0:
		return 0
	case 1:
		return st.v1
	default:
		return math.Float64bits(2*math.Float64frombits(st.v1) - math.Float64frombits(st.v2))
	}
}

// grow extends the lane to cover node IDs below n.
func (l *lanes) grow(n int) {
	if n > len(*l) {
		*l = append(*l, make([]laneState, n-len(*l))...)
	}
}

// push records bits as node u's newest value; predict has grown the lane.
func (l lanes) push(u int, bits uint64) {
	st := &l[u]
	st.v2, st.v1 = st.v1, bits
	if st.seen < 2 {
		st.seen++
	}
}

// append encodes vals[i] as node ids[i]'s next value.
func (l *lanes) append(b []byte, ids []int32, vals []float64) []byte {
	for i, u := range ids {
		bits := math.Float64bits(vals[i])
		b = binary.AppendUvarint(b, bits^l.predict(int(u)))
		l.push(int(u), bits)
	}
	return b
}

// decode appends node ids[i]'s next value to dst for every i.
func (l *lanes) decode(c *Cursor, ids []int32, dst []float64) []float64 {
	for _, u := range ids {
		bits := c.Uvarint() ^ l.predict(int(u))
		l.push(int(u), bits)
		dst = append(dst, math.Float64frombits(bits))
	}
	return dst
}

// DeltaCodec encodes and decodes WorldDelta record bodies through the
// position and range predictor lanes. Encoder and decoder must see the
// same record sequence and Reset at the same points; the container picks
// those points (the binary log resets at every snapshot anchor, a
// Trajectory at every anchor-era boundary), which keeps anchor-rooted
// tails decodable without earlier context. The zero value is ready.
type DeltaCodec struct {
	x, y, r lanes
}

// Grow sizes the lanes for node IDs below n up front, so a container that
// knows its world size decodes without growing them record by record.
func (dc *DeltaCodec) Grow(n int) {
	dc.x.grow(n)
	dc.y.grow(n)
	dc.r.grow(n)
}

// Reset restarts every predictor chain.
func (dc *DeltaCodec) Reset() {
	clear(dc.x)
	clear(dc.y)
	clear(dc.r)
}

// Append encodes d's body (its Step is the container's business) onto b.
func (dc *DeltaCodec) Append(b []byte, d *WorldDelta) []byte {
	b = appendIDs(b, d.Nodes)
	b = dc.x.append(b, d.Nodes, d.X)
	b = dc.y.append(b, d.Nodes, d.Y)
	b = appendIDs(b, d.RangeNodes)
	b = dc.r.append(b, d.RangeNodes, d.Ranges)
	if !d.FaultChanged {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendIDs(b, d.Dead)
	b = appendIDs(b, d.DownGateways)
	if !d.Partition {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(d.PartitionX))
}

// Decode reads one body from c into d, reusing d's slices and leaving
// d.Step alone. Every ID list must be strictly ascending with IDs below
// limit, and ranges must be non-negative; a violation latches in c.
func (dc *DeltaCodec) Decode(c *Cursor, d *WorldDelta, limit int) {
	d.Nodes = c.ids(d.Nodes[:0], limit)
	d.X = dc.x.decode(c, d.Nodes, d.X[:0])
	d.Y = dc.y.decode(c, d.Nodes, d.Y[:0])
	d.RangeNodes = c.ids(d.RangeNodes[:0], limit)
	d.Ranges = dc.r.decode(c, d.RangeNodes, d.Ranges[:0])
	for i, v := range d.Ranges {
		if !(v >= 0) {
			c.Failf("radio range %v for node %d", v, d.RangeNodes[i])
		}
	}
	d.FaultChanged, d.Partition, d.PartitionX = false, false, 0
	d.Dead, d.DownGateways = d.Dead[:0], d.DownGateways[:0]
	switch fc := c.Byte(); fc {
	case 0:
	case 1:
		d.FaultChanged = true
		d.Dead = c.ids(d.Dead, limit)
		d.DownGateways = c.ids(d.DownGateways, limit)
		switch p := c.Byte(); p {
		case 0:
		case 1:
			d.Partition, d.PartitionX = true, math.Float64frombits(c.U64())
		default:
			c.Failf("bad partition flag %d", p)
		}
	default:
		c.Failf("bad fault-changed flag %d", fc)
	}
}
