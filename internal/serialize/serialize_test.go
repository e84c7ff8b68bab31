package serialize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
)

func TestVectorRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw) % 200
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Normal(0, 100)
		}
		var buf bytes.Buffer
		if err := WriteVector(&buf, v); err != nil {
			return false
		}
		if buf.Len() != VectorWireSize(n) {
			return false
		}
		got, err := ReadVector(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorSpecialValues(t *testing.T) {
	v := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var buf bytes.Buffer
	if err := WriteVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("bit-exactness lost at %d: %x vs %x", i, math.Float64bits(got[i]), math.Float64bits(v[i]))
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, s := range []string{"", "hello", "πδσ — unicode", string(make([]byte, 1000))} {
		buf.Reset()
		if err := WriteString(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := ReadString(&buf)
		if err != nil || got != s {
			t.Fatalf("string round trip failed: %q -> %q (%v)", s, got, err)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := NewCheckpoint()
	c.Meta["method"] = "FedDRL"
	c.Meta["round"] = "42"
	c.Vectors["global"] = []float64{1, 2, 3}
	c.Vectors["policy"] = []float64{-0.5, 0.25}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["method"] != "FedDRL" || got.Meta["round"] != "42" {
		t.Fatalf("meta lost: %+v", got.Meta)
	}
	if len(got.Vectors) != 2 || got.Vectors["global"][2] != 3 || got.Vectors["policy"][0] != -0.5 {
		t.Fatalf("vectors lost: %+v", got.Vectors)
	}
}

func TestEncodeDecodeBytes(t *testing.T) {
	c := NewCheckpoint()
	c.Meta["kind"] = "test"
	c.Vectors["v"] = []float64{3.5, -0.25, 0}
	data, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["kind"] != "test" || len(got.Vectors["v"]) != 3 || got.Vectors["v"][0] != 3.5 {
		t.Fatalf("byte round trip lost data: %+v", got)
	}
	if _, err := Decode(data[:3]); err == nil {
		t.Fatal("truncated bytes decoded")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	c := NewCheckpoint()
	c.Meta["k"] = "v"
	c.Vectors["w"] = []float64{3.14}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vectors["w"][0] != 3.14 || got.Meta["k"] != "v" {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	_, err := Read(&buf)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	c := NewCheckpoint()
	c.Vectors["w"] = make([]float64, 100)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{2, 6, 10, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d did not error", cut)
		}
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A vector claiming 2^31 elements must be rejected, not allocated.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := ReadVector(&buf); err == nil {
		t.Fatal("hostile length accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	// Same checkpoint → identical bytes (map iteration order must not
	// leak into the encoding).
	build := func() *Checkpoint {
		c := NewCheckpoint()
		c.Meta["b"] = "2"
		c.Meta["a"] = "1"
		c.Meta["c"] = "3"
		c.Vectors["z"] = []float64{1}
		c.Vectors["y"] = []float64{2}
		return c
	}
	var b1, b2 bytes.Buffer
	if err := build().Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestVectorWireSize(t *testing.T) {
	if VectorWireSize(0) != 4 || VectorWireSize(10) != 84 {
		t.Fatalf("wire sizes wrong: %d %d", VectorWireSize(0), VectorWireSize(10))
	}
}

func TestSaveFileToBadPath(t *testing.T) {
	c := NewCheckpoint()
	if err := c.SaveFile(string(os.PathSeparator) + "nonexistent-dir-xyz/ckpt.bin"); err == nil {
		t.Fatal("bad path did not error")
	}
}

// TestForgedLengthPrefixBoundedAlloc feeds each length-prefixed reader a
// prefix claiming 2^27 elements (1 GiB of float64s, the largest the
// limit admits) followed by only 12 payload bytes. Each must fail, and
// must allocate about what the stream held rather than what the prefix
// claimed: less than 1 MiB in total.
func TestForgedLengthPrefixBoundedAlloc(t *testing.T) {
	forged := make([]byte, 16)
	binary.LittleEndian.PutUint32(forged, 1<<27)
	readers := map[string]func(io.Reader) error{
		"ReadVector":   func(r io.Reader) error { _, err := ReadVector(r); return err },
		"ReadVector32": func(r io.Reader) error { _, err := ReadVector32(r); return err },
		"ReadString":   func(r io.Reader) error { _, err := ReadString(r); return err },
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read(bytes.NewReader(forged))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want a truncated-payload error", name, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: forged prefix allocated %d bytes, want < 1 MiB", name, alloc)
		}
	}
}

// TestChunkedPayloadRoundTrip round-trips payloads on both sides of the
// one-allocation bound and across several buffer doublings.
func TestChunkedPayloadRoundTrip(t *testing.T) {
	for _, n := range []int{readChunk / 8, readChunk/8 + 1, 5*readChunk/8 + 3} {
		v := make([]float64, n)
		v32 := make([]float32, n)
		for i := range v {
			v[i] = float64(i) * 0.5
			v32[i] = float32(i) * 0.25
		}
		s := strings.Repeat("ab", n)
		var buf bytes.Buffer
		if err := WriteVector(&buf, v); err != nil {
			t.Fatal(err)
		}
		if err := WriteVector32(&buf, v32); err != nil {
			t.Fatal(err)
		}
		if err := WriteString(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := ReadVector(&buf)
		if err != nil || !slices.Equal(got, v) {
			t.Fatalf("n=%d: ReadVector mismatch (err %v)", n, err)
		}
		got32, err := ReadVector32(&buf)
		if err != nil || !slices.Equal(got32, v32) {
			t.Fatalf("n=%d: ReadVector32 mismatch (err %v)", n, err)
		}
		gotS, err := ReadString(&buf)
		if err != nil || gotS != s {
			t.Fatalf("n=%d: ReadString mismatch (err %v)", n, err)
		}
	}
}
