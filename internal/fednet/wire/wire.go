// Package wire is the federation wire protocol: a compact, versioned,
// length-prefixed binary codec for everything that crosses a machine
// boundary in a federated run — control-plane synchronization messages,
// sharded setup distribution, and the data-plane tunnel messages (including
// eager-mode pre-announcements) that carry packets between core processes.
//
// Every frame is
//
//	[ length u32 | version u8 | type u8 | body ]
//
// where length counts the version, type, and body bytes. Bodies are encoded
// with the fixed-width little-endian cursors below; decoding is total — a
// truncated, oversized, or corrupt frame produces an error, never a panic
// (the fuzz tests pin this).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version; peers with a different version are
// rejected at the first frame. Version 2 made the payload registry
// recursive: packet payloads travel as one self-delimiting registry
// encoding (u16 id + body, nested payloads inline) instead of a flat
// (type, blob) pair. Version 3 gave the flush frame a body (the global
// clock floor live edge gateways stamp ingress admissions with) and the
// TSetupAck frame a JSON body (the worker's gateway lease report).
// Version 4 added a fourth blob to the setup frame: the link-dynamics
// spec (dynamics.Encode), empty when the run has none.
// Version 5 added the observability layer: a Trace u64 (the mode-invariant
// packet trace ID) in every PacketWire, and the TTrace frame streaming a
// worker's recorded trace events to the coordinator before its TReport.
// Version 6 is the adaptive-synchronization protocol: the ready frame carries
// the per-peer SafeTo bound vector, window bounds become per-worker grants,
// the TStep/TStepDone pair piggybacks flush + sync + window control into one
// round trip per window, and TDataBatch carries a flush close marker (the
// sender's cumulative channel count when a batch ends a flush) so a lost
// datagram is diagnosable instead of a silent timeout.
// Version 7 is the sharded-distribution protocol: setup travels as chunked
// per-section TSetupChunk frames (a per-shard view instead of the whole
// world), PacketWire carries the injection-time reroute epoch, and the
// TRouteReq/TRouteResp pair demand-pages frontier route summaries from the
// coordinator's oracle.
// Version 8 is the failure/recovery protocol: Step carries a checkpoint
// flag, workers push canonical TCheckpoint state digests at flagged
// barriers, and the TFail/TRecover/TRewire/TResend/TAck frames drive
// fault injection, worker respawn, data-plane rewiring, and per-channel
// message-log retransmission.
// Version 9 is the one-path protocol: every run boots through TSetupChunk
// and synchronizes through TStep/TStepDone, whose Floor now stamps live
// gateway admissions made after the step's window; the monolithic setup
// frame, the split flush/sync/window rounds and the single-message data
// frame are gone, their type numbers retired.
// Version 10 folds the serial drain into the step round: Step carries a
// drain flag and StepDone a Progressed flag, so a drain pass reports the same
// post-pass bounds as any step; the TDrain/TDrainDone pair is gone and its
// type numbers retired.
const Version = 10

// MaxFrame bounds a frame's length field: anything larger is treated as
// corruption rather than an allocation request.
const MaxFrame = 64 << 20

// Frame types. Control types travel coordinator<->worker over TCP;
// TDataBatch and TResend travel worker<->worker on the data plane. Numbers
// are never reused: 2 (the monolithic setup frame), 4–9 (the split barrier's
// flush, sync and window frames with their replies) and 15 (the
// single-message data frame) are retired in version 9, and 10–11 (the
// serial drain turn and its reply) in version 10; all stay reserved, so a
// stray frame from an older peer fails loudly instead of decoding as
// something else.
const (
	THello      uint8 = 1  // worker -> coordinator: join (JSON body)
	TSetupAck   uint8 = 3  // worker -> coordinator: mesh + gateway up (JSON body)
	TFinish     uint8 = 12 // coordinator -> worker: stop and report
	TReport     uint8 = 13 // worker -> coordinator: final report (JSON body)
	TError      uint8 = 14 // either direction: fatal error (text body)
	TDataBatch  uint8 = 16 // worker -> worker: a dense run of tunnel messages
	TTrace      uint8 = 17 // worker -> coordinator: a chunk of trace events (before TReport)
	TStep       uint8 = 18 // coordinator -> worker: one fused barrier step or drain pass (await + apply + run + admit + flush)
	TStepDone   uint8 = 19 // worker -> coordinator: step complete: counts + post-step bounds
	TSetupChunk uint8 = 20 // coordinator -> worker: one chunk of a sharded setup section
	TRouteReq   uint8 = 21 // worker -> coordinator: demand-page one route summary (epoch, target)
	TRouteResp  uint8 = 22 // coordinator -> worker: the requested summary distances
	TCheckpoint uint8 = 23 // worker -> coordinator: canonical shard state digest at a flagged barrier
	TFail       uint8 = 24 // coordinator -> worker: fault injection: die at barrier N (first boot only)
	TRecover    uint8 = 25 // coordinator -> worker: respawn notice: suppress data-plane sends below these watermarks
	TRewire     uint8 = 26 // coordinator -> worker: a peer respawned; swap its data-plane endpoints
	TResend     uint8 = 27 // coordinator -> worker: retransmit your whole send log to the respawned peer
	TAck        uint8 = 28 // worker -> coordinator: a TRewire/TResend directive completed
)

const headerBytes = 6 // u32 length + u8 version + u8 type

// oversizeErr names the limit loudly: a body this large means a setup or
// batch producer failed to chunk, and the receiver would reject the length
// field as corruption — so the sender fails first, with the real cause.
func oversizeErr(typ uint8, n int) error {
	return fmt.Errorf("wire: frame type %d body is %d bytes, exceeding MaxFrame (%d bytes / 64MB); the payload must be chunked (TSetupChunk / TDataBatch), not sent as one frame", typ, n, MaxFrame)
}

// AppendFrame appends a complete frame to dst and returns the result. It
// panics on a body that exceeds MaxFrame — senders with an error path should
// use WriteFrame or check CheckFrameSize first.
func AppendFrame(dst []byte, typ uint8, body []byte) []byte {
	if err := CheckFrameSize(typ, body); err != nil {
		panic(err)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)+2))
	dst = append(dst, Version, typ)
	return append(dst, body...)
}

// CheckFrameSize reports whether body fits in one frame under MaxFrame.
func CheckFrameSize(typ uint8, body []byte) error {
	if len(body)+2 > MaxFrame {
		return oversizeErr(typ, len(body))
	}
	return nil
}

// WriteFrame writes one frame to w, rejecting oversize bodies with an
// explicit error instead of emitting a frame the peer will treat as corrupt.
func WriteFrame(w io.Writer, typ uint8, body []byte) error {
	if err := CheckFrameSize(typ, body); err != nil {
		return err
	}
	buf := AppendFrame(make([]byte, 0, headerBytes+len(body)), typ, body)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from a stream.
func ReadFrame(r io.Reader) (typ uint8, body []byte, err error) {
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 2 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame length %d out of range", n)
	}
	rest := make([]byte, n)
	if _, err := io.ReadFull(r, rest); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	if rest[0] != Version {
		return 0, nil, fmt.Errorf("wire: version %d, want %d", rest[0], Version)
	}
	return rest[1], rest[2:], nil
}

// ParseFrame decodes one datagram-framed frame (the UDP data plane, where
// the transport preserves message boundaries).
func ParseFrame(b []byte) (typ uint8, body []byte, err error) {
	if len(b) < headerBytes {
		return 0, nil, fmt.Errorf("wire: datagram %d bytes, need at least %d", len(b), headerBytes)
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n < 2 || n > MaxFrame || int(n) != len(b)-4 {
		return 0, nil, fmt.Errorf("wire: datagram length field %d does not match %d payload bytes", n, len(b)-4)
	}
	if b[4] != Version {
		return 0, nil, fmt.Errorf("wire: version %d, want %d", b[4], Version)
	}
	return b[5], b[6:], nil
}

// Enc is an append-only little-endian encoder.
type Enc struct {
	b            []byte
	payloadDepth int
}

// Bytes returns the encoded buffer.
func (e *Enc) Bytes() []byte { return e.b }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.b = append(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a uint16.
func (e *Enc) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }

// U32 appends a uint32.
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a uint64.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I32 appends an int32.
func (e *Enc) I32(v int32) { e.U32(uint32(v)) }

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends a float64 bit-exactly.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Blob appends a u32-length-prefixed byte string.
func (e *Enc) Blob(v []byte) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// Str appends a u32-length-prefixed string.
func (e *Enc) Str(v string) {
	e.U32(uint32(len(v)))
	e.b = append(e.b, v...)
}

// Dec is a bounds-checked little-endian decoder with a sticky error:
// reading past the end sets the error and returns zero values, so codecs
// can decode unconditionally and check once.
type Dec struct {
	b            []byte
	off          int
	err          error
	payloadDepth int
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the sticky error.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(need int) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated: need %d bytes at offset %d of %d", need, d.off, len(d.b))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail(n)
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// Bool reads a boolean byte; any nonzero value is true.
func (d *Dec) Bool() bool { return d.U8() != 0 }

// StrictBool reads a boolean byte accepting only the canonical encodings 0
// and 1. Payload codecs use it: under the canonicality contract a decoder
// must reject any byte its encoder would not emit.
func (d *Dec) StrictBool() (bool, error) {
	switch b := d.U8(); b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, fmt.Errorf("wire: non-canonical boolean byte %d", b)
	}
}

// U16 reads a uint16.
func (d *Dec) U16() uint16 {
	s := d.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I32 reads an int32.
func (d *Dec) I32() int32 { return int32(d.U32()) }

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Blob reads a u32-length-prefixed byte string. The result aliases the
// input buffer.
func (d *Dec) Blob() []byte {
	n := d.U32()
	if n > MaxFrame {
		d.fail(int(n))
		return nil
	}
	return d.take(int(n))
}

// Str reads a u32-length-prefixed string.
func (d *Dec) Str() string { return string(d.Blob()) }

// Len reads a u32 element count, bounds-checked against the bytes that
// remain assuming at least elemBytes per element — a corrupt count fails
// here instead of provoking a huge allocation.
func (d *Dec) Len(elemBytes int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if elemBytes < 1 {
		elemBytes = 1
	}
	if int(n) > (len(d.b)-d.off)/elemBytes {
		d.fail(int(n) * elemBytes)
		return 0
	}
	return int(n)
}

// Done checks that decoding consumed the whole buffer cleanly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(d.b)-d.off)
	}
	return nil
}
