// Package serialize provides the binary wire/checkpoint format used by
// the reproduction: flat float64 parameter vectors (the payload clients
// and server exchange every round) and named checkpoint files (global
// model snapshots, trained DRL agents). The format is explicit
// little-endian with a magic header and length prefixes, so checkpoints
// are portable across machines and versions can be detected.
//
// The same encoder measures message sizes for the communication
// accounting of §5.3 (FedDRL adds only a few floats of inference-loss
// metadata per round on top of FedAvg's weight payload).
package serialize

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Magic identifies feddrl checkpoint streams.
const Magic = 0xfedd5e01

// ErrBadMagic reports a stream that is not a feddrl checkpoint.
var ErrBadMagic = errors.New("serialize: bad magic (not a feddrl checkpoint)")

// maxLen guards length prefixes against corrupt or hostile streams.
const maxLen = 1 << 30

// readChunk bounds what a length prefix alone can make the readers
// allocate: payloads longer than readChunk bytes are read in pieces, so
// memory follows the bytes that actually arrive (see readPayload).
const readChunk = 1 << 16

// readPayload reads the n-byte payload of a length-prefixed field into
// a buffer that starts at min(n, readChunk) bytes and doubles only once
// it is full, so a payload of at most readChunk bytes takes one
// allocation and one read. A forged prefix on a short stream therefore
// fails after allocating at most twice the bytes the stream held, or the
// first min(n, readChunk) if that is more, not the length the prefix
// claimed.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a short read
		}
		if err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+got]
	}
	return buf, nil
}

// WriteVector writes a float64 vector with a length prefix.
func WriteVector(w io.Writer, v []float64) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(v))); err != nil {
		return fmt.Errorf("serialize: vector length: %w", err)
	}
	buf := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("serialize: vector payload: %w", err)
	}
	return nil
}

// ReadVector reads a vector written by WriteVector.
func ReadVector(r io.Reader) ([]float64, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("serialize: vector length: %w", err)
	}
	if n > maxLen/8 {
		return nil, fmt.Errorf("serialize: vector length %d exceeds limit", n)
	}
	buf, err := readPayload(r, 8*int(n))
	if err != nil {
		return nil, fmt.Errorf("serialize: vector payload: %w", err)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// WriteVector32 writes a float32 vector with a length prefix — the
// half-width wire encoding of f32 precision mode (4 bytes per weight).
func WriteVector32(w io.Writer, v []float32) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(v))); err != nil {
		return fmt.Errorf("serialize: vector32 length: %w", err)
	}
	buf := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(f))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("serialize: vector32 payload: %w", err)
	}
	return nil
}

// ReadVector32 reads a vector written by WriteVector32.
func ReadVector32(r io.Reader) ([]float32, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("serialize: vector32 length: %w", err)
	}
	if n > maxLen/4 {
		return nil, fmt.Errorf("serialize: vector32 length %d exceeds limit", n)
	}
	buf, err := readPayload(r, 4*int(n))
	if err != nil {
		return nil, fmt.Errorf("serialize: vector32 payload: %w", err)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
	return out, nil
}

// WriteString writes a length-prefixed UTF-8 string.
func WriteString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return fmt.Errorf("serialize: string length: %w", err)
	}
	if _, err := io.WriteString(w, s); err != nil {
		return fmt.Errorf("serialize: string payload: %w", err)
	}
	return nil
}

// ReadString reads a string written by WriteString.
func ReadString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", fmt.Errorf("serialize: string length: %w", err)
	}
	if n > maxLen {
		return "", fmt.Errorf("serialize: string length %d exceeds limit", n)
	}
	buf, err := readPayload(r, int(n))
	if err != nil {
		return "", fmt.Errorf("serialize: string payload: %w", err)
	}
	return string(buf), nil
}

// Checkpoint is a named collection of vectors (e.g. "policy", "value",
// "global") plus free-form metadata. Vectors32 carries half-width
// payloads (f32 precision mode); it is encoded as an appended section
// that legacy streams simply lack, so old checkpoints decode with an
// empty Vectors32 and checkpoints without f32 payloads encode
// byte-identically to the legacy layout.
type Checkpoint struct {
	Meta      map[string]string
	Vectors   map[string][]float64
	Vectors32 map[string][]float32
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{
		Meta:      map[string]string{},
		Vectors:   map[string][]float64{},
		Vectors32: map[string][]float32{},
	}
}

// Write encodes the checkpoint to w.
func (c *Checkpoint) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, uint32(Magic)); err != nil {
		return fmt.Errorf("serialize: magic: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(c.Meta))); err != nil {
		return fmt.Errorf("serialize: meta count: %w", err)
	}
	for _, k := range sortedKeys(c.Meta) {
		if err := WriteString(bw, k); err != nil {
			return err
		}
		if err := WriteString(bw, c.Meta[k]); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(c.Vectors))); err != nil {
		return fmt.Errorf("serialize: vector count: %w", err)
	}
	for _, k := range sortedVecKeys(c.Vectors) {
		if err := WriteString(bw, k); err != nil {
			return err
		}
		if err := WriteVector(bw, c.Vectors[k]); err != nil {
			return err
		}
	}
	if len(c.Vectors32) > 0 {
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(c.Vectors32))); err != nil {
			return fmt.Errorf("serialize: vector32 count: %w", err)
		}
		for _, k := range sortedVec32Keys(c.Vectors32) {
			if err := WriteString(bw, k); err != nil {
				return err
			}
			if err := WriteVector32(bw, c.Vectors32[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read decodes a checkpoint from r.
func Read(r io.Reader) (*Checkpoint, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("serialize: magic: %w", err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	c := NewCheckpoint()
	var nMeta uint32
	if err := binary.Read(r, binary.LittleEndian, &nMeta); err != nil {
		return nil, fmt.Errorf("serialize: meta count: %w", err)
	}
	if nMeta > 1<<20 {
		return nil, fmt.Errorf("serialize: meta count %d exceeds limit", nMeta)
	}
	for i := uint32(0); i < nMeta; i++ {
		k, err := ReadString(r)
		if err != nil {
			return nil, err
		}
		v, err := ReadString(r)
		if err != nil {
			return nil, err
		}
		c.Meta[k] = v
	}
	var nVec uint32
	if err := binary.Read(r, binary.LittleEndian, &nVec); err != nil {
		return nil, fmt.Errorf("serialize: vector count: %w", err)
	}
	if nVec > 1<<20 {
		return nil, fmt.Errorf("serialize: vector count %d exceeds limit", nVec)
	}
	for i := uint32(0); i < nVec; i++ {
		k, err := ReadString(r)
		if err != nil {
			return nil, err
		}
		v, err := ReadVector(r)
		if err != nil {
			return nil, err
		}
		c.Vectors[k] = v
	}
	// The float32 section is optional: legacy streams end here, so a
	// clean EOF means an empty Vectors32, not corruption.
	var nVec32 uint32
	if err := binary.Read(r, binary.LittleEndian, &nVec32); err != nil {
		if errors.Is(err, io.EOF) {
			return c, nil
		}
		return nil, fmt.Errorf("serialize: vector32 count: %w", err)
	}
	if nVec32 > 1<<20 {
		return nil, fmt.Errorf("serialize: vector32 count %d exceeds limit", nVec32)
	}
	for i := uint32(0); i < nVec32; i++ {
		k, err := ReadString(r)
		if err != nil {
			return nil, err
		}
		v, err := ReadVector32(r)
		if err != nil {
			return nil, err
		}
		c.Vectors32[k] = v
	}
	return c, nil
}

// Encode returns the checkpoint serialized to a byte slice — the
// in-memory counterpart of SaveFile, used by the experiment shard
// artifacts and their round-trip tests.
func (c *Checkpoint) Encode() ([]byte, error) {
	var b bytes.Buffer
	if err := c.Write(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Decode parses a checkpoint from a byte slice written by Encode.
func Decode(data []byte) (*Checkpoint, error) {
	return Read(bytes.NewReader(data))
}

// SaveFile writes the checkpoint to a file path.
func (c *Checkpoint) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("serialize: create %s: %w", path, err)
	}
	defer f.Close()
	if err := c.Write(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads a checkpoint from a file path.
func LoadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serialize: open %s: %w", path, err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

// VectorWireSize returns the encoded byte size of a float64 vector —
// the per-message payload accounting of §5.3.
func VectorWireSize(n int) int { return 4 + 8*n }

// VectorWireSize32 returns the encoded byte size of a float32 vector:
// 4 bytes per weight, half the float64 payload — the f32-mode uplink
// and downlink accounting.
func VectorWireSize32(n int) int { return 4 + 4*n }

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func sortedVecKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func sortedVec32Keys(m map[string][]float32) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

// sortStrings is insertion sort — key sets are tiny and this avoids an
// import cycle risk with sort in some build configurations. (The sort
// package is fine; this simply keeps the hot path allocation-free.)
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
