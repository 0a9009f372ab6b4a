// Package xdr implements the External Data Representation serialization
// (RFC 4506) subset used by ONC RPC and NFSv3: 32/64-bit integers, booleans,
// variable and fixed-length opaques, strings, and the 4-byte alignment rules.
package xdr

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var (
	// ErrShortBuffer is returned when decoding runs past the end of input.
	ErrShortBuffer = errors.New("xdr: short buffer")
	// ErrLength is returned when a decoded length exceeds its declared bound.
	ErrLength = errors.New("xdr: length exceeds maximum")
)

// Encoder appends XDR-encoded values to an internal buffer.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer. The slice aliases the encoder's storage.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the encoder while keeping its backing storage, so a pooled
// encoder re-encodes without reallocating once it has grown to working size.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Truncate discards everything encoded after the first n bytes. It panics if
// n exceeds the current length, matching bytes.Buffer.Truncate.
func (e *Encoder) Truncate(n int) {
	if n < 0 || n > len(e.buf) {
		panic("xdr: Truncate out of range")
	}
	e.buf = e.buf[:n]
}

// SetUint32At overwrites a previously encoded 32-bit value at byte offset off.
// Used to patch a status or length slot reserved earlier in the same message.
func (e *Encoder) SetUint32At(off int, v uint32) {
	if off < 0 || off+4 > len(e.buf) {
		panic("xdr: SetUint32At out of range")
	}
	binary.BigEndian.PutUint32(e.buf[off:], v)
}

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Int32 encodes a 32-bit signed integer.
func (e *Encoder) Int32(v int32) { e.Uint32(uint32(v)) }

// Uint64 encodes a 64-bit unsigned integer (XDR unsigned hyper).
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 encodes a 64-bit signed integer (XDR hyper).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Bool encodes an XDR boolean (a 32-bit 0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Opaque encodes a variable-length opaque: length, bytes, zero padding to a
// multiple of four.
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.FixedOpaque(b)
}

// FixedOpaque encodes bytes with padding but no length prefix.
func (e *Encoder) FixedOpaque(b []byte) {
	e.buf = append(e.buf, b...)
	if pad := (4 - len(b)%4) % 4; pad > 0 {
		e.buf = append(e.buf, make([]byte, pad)...)
	}
}

// String encodes an XDR string (identical wire form to a variable opaque).
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Decoder consumes XDR-encoded values from a buffer.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset points the decoder at buf and rewinds it, so one decoder can be
// reused across many frames without allocating.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.off = 0
}

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() (uint32, error) {
	if d.Remaining() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// Int32 decodes a 32-bit signed integer.
func (d *Decoder) Int32() (int32, error) {
	v, err := d.Uint32()
	return int32(v), err
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

// Int64 decodes a 64-bit signed integer.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Bool decodes an XDR boolean. Any nonzero value is treated as true, per the
// lenient reading common to NFS implementations.
func (d *Decoder) Bool() (bool, error) {
	v, err := d.Uint32()
	return v != 0, err
}

// Opaque decodes a variable-length opaque bounded by maxLen (0 = unbounded).
// The returned slice is a copy.
func (d *Decoder) Opaque(maxLen uint32) ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if maxLen > 0 && n > maxLen {
		return nil, fmt.Errorf("%w: %d > %d", ErrLength, n, maxLen)
	}
	return d.FixedOpaque(int(n))
}

// OpaqueRef decodes a variable-length opaque bounded by maxLen (0 = unbounded)
// and returns a slice that ALIASES the decoder's underlying buffer — no copy is
// made. Callers must either consume the bytes before the buffer is recycled or
// copy them out; it exists for trusted same-frame consumers on the hot path.
func (d *Decoder) OpaqueRef(maxLen uint32) ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if maxLen > 0 && n > maxLen {
		return nil, fmt.Errorf("%w: %d > %d", ErrLength, n, maxLen)
	}
	if int(n) < 0 || d.Remaining() < int(n) {
		return nil, ErrShortBuffer
	}
	out := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	if pad := (4 - int(n)%4) % 4; pad > 0 {
		if d.Remaining() < pad {
			return nil, ErrShortBuffer
		}
		d.off += pad
	}
	return out, nil
}

// Rest consumes and returns every unread byte. Like OpaqueRef's, the slice
// ALIASES the decoder's buffer; it is for relaying a body verbatim.
func (d *Decoder) Rest() []byte {
	out := d.buf[d.off:len(d.buf):len(d.buf)]
	d.off = len(d.buf)
	return out
}

// FixedOpaque decodes n bytes plus padding. The returned slice is a copy.
func (d *Decoder) FixedOpaque(n int) ([]byte, error) {
	if n < 0 || d.Remaining() < n {
		return nil, ErrShortBuffer
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:])
	d.off += n
	if pad := (4 - n%4) % 4; pad > 0 {
		if d.Remaining() < pad {
			return nil, ErrShortBuffer
		}
		d.off += pad
	}
	return out, nil
}

// String decodes an XDR string bounded by maxLen (0 = unbounded).
func (d *Decoder) String(maxLen uint32) (string, error) {
	b, err := d.Opaque(maxLen)
	return string(b), err
}
