package dynnet

import (
	"errors"
	"fmt"

	"dynstream/internal/stream"
	"dynstream/internal/wire"
)

// Payload encodings for each frame type, in the wire codec. All integers
// are minimal uvarints; the only fixed-width payload fields are float64
// weights.

// ErrBadPayload reports a payload that does not decode under its
// frame's schema.
var ErrBadPayload = errors.New("dynnet: malformed payload")

// ErrorCode classifies an ERROR frame so the receiving side can map it
// back to a typed error.
type ErrorCode uint8

// The ERROR frame codes.
const (
	// CodeInternal is any worker/coordinator-side failure without a
	// more specific classification.
	CodeInternal ErrorCode = 1
	// CodeNotReplayable reports that a worker's local shard source
	// cannot deliver the requested (repeat) pass — the wire form of
	// stream.ErrNotReplayable.
	CodeNotReplayable ErrorCode = 2
	// CodeBadAssign reports an ASSIGN the worker cannot satisfy
	// (unknown state kind, undecodable prototype, no local source).
	CodeBadAssign ErrorCode = 3
	// CodeBadUpdate reports an UPDATES batch that failed validation.
	CodeBadUpdate ErrorCode = 4
	// CodeWrongVersion reports a protocol-version mismatch detected at
	// registration.
	CodeWrongVersion ErrorCode = 5
)

// Hello is the registration payload a worker sends when it connects
// (and the coordinator echoes back to acknowledge).
type Hello struct {
	ID string
}

// EncodeHello encodes a HELLO payload.
func EncodeHello(h Hello) []byte {
	w := &wire.Writer{}
	w.Uvarint(uint64(len(h.ID)))
	w.Raw([]byte(h.ID))
	return w.Bytes()
}

// DecodeHello decodes a HELLO payload.
func DecodeHello(payload []byte) (Hello, error) {
	r := wire.NewReader(payload, ErrBadPayload)
	ln := r.Uvarint()
	if ln > 1<<16 {
		return Hello{}, fmt.Errorf("%w: worker id of %d bytes", ErrBadPayload, ln)
	}
	id := r.Bytes(ln)
	if err := r.Done(); err != nil {
		return Hello{}, err
	}
	return Hello{ID: string(id)}, nil
}

// Assign tells a worker to begin one build pass.
type Assign struct {
	// Kind selects the sketch state the worker instantiates.
	Kind StateKind
	// Local, when set, tells the worker to ingest its own local shard
	// source instead of waiting for streamed UPDATES.
	Local bool
	// Seq is the pass sequence number within the build (diagnostics,
	// and the worker's replay counter for local sources).
	Seq int
	// N is the vertex count the state must be built over.
	N int
	// Blob is the coordinator's marshaled prototype state; the worker
	// decodes it to obtain a same-randomness state to ingest into.
	Blob []byte
}

const assignFlagLocal = 1

// EncodeAssign encodes an ASSIGN payload.
func EncodeAssign(a Assign) []byte {
	flags := byte(0)
	if a.Local {
		flags |= assignFlagLocal
	}
	w := &wire.Writer{}
	w.Byte(byte(a.Kind))
	w.Byte(flags)
	w.Uvarint(uint64(a.Seq))
	w.Uvarint(uint64(a.N))
	w.Uvarint(uint64(len(a.Blob)))
	w.Raw(a.Blob)
	return w.Bytes()
}

// DecodeAssign decodes an ASSIGN payload.
func DecodeAssign(payload []byte) (Assign, error) {
	r := wire.NewReader(payload, ErrBadPayload)
	kind, flags, seq, n := r.Byte(), r.Byte(), r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return Assign{}, err
	}
	if flags&^byte(assignFlagLocal) != 0 {
		return Assign{}, fmt.Errorf("%w: unknown assign flags %02x", ErrBadPayload, flags)
	}
	if seq > 1<<20 || n == 0 || n > 1<<32 {
		return Assign{}, fmt.Errorf("%w: assign seq=%d n=%d out of range", ErrBadPayload, seq, n)
	}
	a := Assign{Kind: StateKind(kind), Local: flags&assignFlagLocal != 0, Seq: int(seq), N: int(n)}
	a.Blob = r.Bytes(r.Uvarint())
	if err := r.Done(); err != nil {
		return Assign{}, err
	}
	return a, nil
}

// Update-record flag bits inside an UPDATES payload.
const (
	updFlagInsert     = 1 // Delta = +1 (clear: -1)
	updFlagUnitWeight = 2 // W = 1, no explicit weight field follows
)

// AppendUpdates appends the UPDATES payload for batch to dst: a varint
// count followed by records
//
//	u(uvarint) v(uvarint) flags(1) [w(f64 LE) when not unit-weight]
//
// Endpoints and the near-universal unit weight varint-compress to a
// fraction of the fixed 20-byte binary stream record.
func AppendUpdates(dst []byte, batch []stream.Update) []byte {
	w := wire.NewWriter(dst)
	w.Uvarint(uint64(len(batch)))
	for _, u := range batch {
		w.Uvarint(uint64(u.U))
		w.Uvarint(uint64(u.V))
		flags := byte(0)
		if u.Delta > 0 {
			flags |= updFlagInsert
		}
		if u.W == 1 {
			flags |= updFlagUnitWeight
		}
		w.Byte(flags)
		if u.W != 1 {
			w.F64(u.W)
		}
	}
	return w.Bytes()
}

// DecodeUpdates decodes an UPDATES payload into buf (reused when large
// enough). Records are validated against the vertex count n with the
// same gate every Source uses, so a worker ingests exactly the updates
// a local replay would deliver.
func DecodeUpdates(payload []byte, n int, buf []stream.Update) ([]stream.Update, error) {
	r := wire.NewReader(payload, ErrBadPayload)
	count := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if count > uint64(len(payload)) { // every record is >= 3 bytes
		return nil, fmt.Errorf("%w: update count %d exceeds payload", ErrBadPayload, count)
	}
	if uint64(cap(buf)) < count {
		buf = make([]stream.Update, 0, count)
	}
	buf = buf[:0]
	for i := uint64(0); i < count; i++ {
		uu, vv, flags := r.Uvarint(), r.Uvarint(), r.Byte()
		if flags&^byte(updFlagInsert|updFlagUnitWeight) != 0 {
			return nil, fmt.Errorf("%w: unknown update flags %02x", ErrBadPayload, flags)
		}
		u := stream.Update{U: int(uu), V: int(vv), Delta: -1, W: 1}
		if flags&updFlagInsert != 0 {
			u.Delta = 1
		}
		if flags&updFlagUnitWeight == 0 {
			u.W = r.F64()
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if uu > 1<<32 || vv > 1<<32 {
			return nil, fmt.Errorf("%w: endpoint out of range", ErrBadPayload)
		}
		cu, err := stream.CheckUpdate(u, n)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		buf = append(buf, cu)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return buf, nil
}

// SketchMsg is a worker's end-of-pass result.
type SketchMsg struct {
	// Updates is the number of updates the worker ingested this pass.
	Updates int64
	// Blob is the worker's marshaled state.
	Blob []byte
}

// EncodeSketch encodes a SKETCH payload.
func EncodeSketch(m SketchMsg) []byte {
	w := &wire.Writer{}
	w.Uvarint(uint64(m.Updates))
	w.Uvarint(uint64(len(m.Blob)))
	w.Raw(m.Blob)
	return w.Bytes()
}

// DecodeSketch decodes a SKETCH payload.
func DecodeSketch(payload []byte) (SketchMsg, error) {
	r := wire.NewReader(payload, ErrBadPayload)
	m := SketchMsg{Updates: int64(r.Uvarint())}
	m.Blob = r.Bytes(r.Uvarint())
	if err := r.Done(); err != nil {
		return SketchMsg{}, err
	}
	return m, nil
}

// ErrorMsg is a typed protocol failure.
type ErrorMsg struct {
	Code ErrorCode
	Msg  string
}

// EncodeError encodes an ERROR payload.
func EncodeError(e ErrorMsg) []byte {
	w := &wire.Writer{}
	w.Byte(byte(e.Code))
	w.Uvarint(uint64(len(e.Msg)))
	w.Raw([]byte(e.Msg))
	return w.Bytes()
}

// DecodeError decodes an ERROR payload.
func DecodeError(payload []byte) (ErrorMsg, error) {
	r := wire.NewReader(payload, ErrBadPayload)
	code, ln := r.Byte(), r.Uvarint()
	if ln > 1<<16 {
		return ErrorMsg{}, fmt.Errorf("%w: error message of %d bytes", ErrBadPayload, ln)
	}
	msg := r.Bytes(ln)
	if err := r.Done(); err != nil {
		return ErrorMsg{}, err
	}
	return ErrorMsg{Code: ErrorCode(code), Msg: string(msg)}, nil
}

// Err converts a received ERROR frame into the matching typed Go error.
func (e ErrorMsg) Err() error {
	switch e.Code {
	case CodeNotReplayable:
		return fmt.Errorf("dynnet: remote: %s: %w", e.Msg, stream.ErrNotReplayable)
	default:
		return fmt.Errorf("dynnet: remote error (code %d): %s", e.Code, e.Msg)
	}
}
