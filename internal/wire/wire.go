// Package wire holds the primitives every debugdet binary codec shares: a
// byte-counting writer, and unsigned varints, zigzag varints and
// length-prefixed strings in the encoding/binary layout. The trace,
// checkpoint, flight-recorder and recording formats all build on it, so
// one change here changes every file format at once; the codecs'
// round-trip and truncation tests pin the bytes.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// CountingWriter forwards writes to W and counts the bytes written in N.
type CountingWriter struct {
	W io.Writer
	N int64
}

func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.N += int64(n)
	return n, err
}

// WriteUvarint writes v as an unsigned varint. Write errors stick to w and
// surface at its Flush.
func WriteUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

// WriteVarint writes v as a zigzag varint.
func WriteVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

// WriteString writes s as a uvarint length followed by its bytes.
func WriteString(w *bufio.Writer, s string) {
	WriteUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// Format binds the read primitives to one codec: every read failure is
// reported as the codec's corruption sentinel, and decoded strings are
// bounded by the codec's own limit.
type Format struct {
	// Err is the codec's corruption sentinel; every read error wraps it.
	Err error
	// MaxString bounds a decoded string's length in bytes.
	MaxString uint64
	// StringWhat names the string length in the rejection of an
	// oversized one: "implausible <StringWhat> <n>".
	StringWhat string
}

// Corrupt attributes err to the format's sentinel, leaving errors that
// already wrap it unchanged.
func (f *Format) Corrupt(err error) error {
	if errors.Is(err, f.Err) {
		return err
	}
	return fmt.Errorf("%w: %v", f.Err, err)
}

// ReadUvarint reads an unsigned varint.
func (f *Format) ReadUvarint(r *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, f.Corrupt(err)
	}
	return v, nil
}

// ReadVarint reads a zigzag varint.
func (f *Format) ReadVarint(r *bufio.Reader) (int64, error) {
	v, err := binary.ReadVarint(r)
	if err != nil {
		return 0, f.Corrupt(err)
	}
	return v, nil
}

// ReadString reads a string written by WriteString, rejecting lengths
// above f.MaxString before allocating.
func (f *Format) ReadString(r *bufio.Reader) (string, error) {
	n, err := f.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > f.MaxString {
		return "", f.Corrupt(fmt.Errorf("implausible %s %d", f.StringWhat, n))
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", f.Corrupt(err)
	}
	return string(b), nil
}
