// Package store persists transaction and categorical data sets to disk and
// streams them back. ROCK's pipeline (Figure 2 of the paper) clusters a
// random sample in memory and then labels "the remaining data points
// residing on disk"; this package supplies the disk side: a line-oriented
// text format, a compact varint binary format, and streaming scanners so the
// labeling phase never materializes the full data set.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"rock/internal/dataset"
)

// Scanner streams transactions one at a time.
type Scanner interface {
	// Next returns the next transaction. It returns io.EOF after the last
	// one.
	Next() (dataset.Transaction, error)
}

// ---- Text format: one transaction per line, space-separated item ids. ----

// WriteText writes transactions in the text format.
func WriteText(w io.Writer, txns []dataset.Transaction) error {
	bw := bufio.NewWriter(w)
	for _, t := range txns {
		for i, it := range t {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(it))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TextScanner streams transactions from the text format.
type TextScanner struct {
	s    *bufio.Scanner
	line int
}

// NewTextScanner wraps a reader of the text format.
func NewTextScanner(r io.Reader) *TextScanner {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return &TextScanner{s: s}
}

// Next returns the next transaction or io.EOF.
func (ts *TextScanner) Next() (dataset.Transaction, error) {
	if !ts.s.Scan() {
		if err := ts.s.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	ts.line++
	t, err := ParseTextLine(ts.s.Text())
	if err != nil {
		return nil, fmt.Errorf("store: line %d: %w", ts.line, err)
	}
	return t, nil
}

// ParseTextLine parses one line of the text format into a normalized
// transaction. Every item id must lie in [0, math.MaxInt32].
func ParseTextLine(line string) (dataset.Transaction, error) {
	fields := strings.Fields(line)
	t := make(dataset.Transaction, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseInt(f, 10, 32)
		if err == nil && v < 0 {
			err = errors.New("negative item id")
		}
		if err != nil {
			return nil, fmt.Errorf("bad item %q: %v", f, err)
		}
		t = append(t, dataset.Item(v))
	}
	t.Normalize()
	return t, nil
}

// ReadTextAll loads an entire text-format file into memory.
func ReadTextAll(r io.Reader) ([]dataset.Transaction, error) {
	sc := NewTextScanner(r)
	var out []dataset.Transaction
	for {
		t, err := sc.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// ---- Binary format: magic, count, then delta-varint encoded items. ----

var binMagic = [4]byte{'R', 'O', 'C', 'K'}

// WriteBinary writes transactions in the binary format: a 4-byte magic, a
// uvarint transaction count, then per transaction a uvarint length followed
// by delta-encoded uvarint item ids (sorted transactions delta-compress
// well).
func WriteBinary(w io.Writer, txns []dataset.Transaction) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := put(uint64(len(txns))); err != nil {
		return err
	}
	for _, t := range txns {
		if err := put(uint64(len(t))); err != nil {
			return err
		}
		prev := dataset.Item(0)
		for _, it := range t {
			if it < 0 {
				return fmt.Errorf("store: item %d out of range", it)
			}
			if err := put(uint64(it - prev)); err != nil {
				return err
			}
			prev = it
		}
	}
	return bw.Flush()
}

// BinaryScanner streams transactions from the binary format.
type BinaryScanner struct {
	r         *bufio.Reader
	remaining uint64
}

// NewBinaryScanner wraps a reader of the binary format, validating the
// header.
func NewBinaryScanner(r io.Reader) (*BinaryScanner, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if magic != binMagic {
		return nil, errors.New("store: not a ROCK binary transaction file")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: reading count: %w", err)
	}
	return &BinaryScanner{r: br, remaining: n}, nil
}

// Count returns the number of transactions left to read.
func (bs *BinaryScanner) Count() uint64 { return bs.remaining }

// Next returns the next transaction or io.EOF.
func (bs *BinaryScanner) Next() (dataset.Transaction, error) {
	if bs.remaining == 0 {
		return nil, io.EOF
	}
	bs.remaining--
	n, err := binary.ReadUvarint(bs.r)
	if err != nil {
		return nil, fmt.Errorf("store: reading length: %w", err)
	}
	// Cap the preallocation: a corrupt or hostile length prefix must not
	// translate into an arbitrary allocation. The slice still grows to the
	// real item count via append, but only as items actually arrive.
	const maxPrealloc = 1 << 16
	capHint := n
	if capHint > maxPrealloc {
		capHint = maxPrealloc
	}
	t := make(dataset.Transaction, 0, capHint)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := binary.ReadUvarint(bs.r)
		if err != nil {
			return nil, fmt.Errorf("store: reading item: %w", err)
		}
		// Deltas add mod 2^64: WriteBinary encodes a step down to a smaller
		// id as a wrapped delta.
		prev += d
		if prev > math.MaxInt32 {
			return nil, fmt.Errorf("store: item %d out of range", prev)
		}
		t = append(t, dataset.Item(prev))
	}
	return t, nil
}

// ---- File helpers. ----

// SaveText writes transactions to path in the text format.
func SaveText(path string, txns []dataset.Transaction) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteText(f, txns); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadText reads a text-format file.
func LoadText(path string) ([]dataset.Transaction, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTextAll(f)
}

// SaveBinary writes transactions to path in the binary format.
func SaveBinary(path string, txns []dataset.Transaction) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, txns); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenBinary opens a binary-format file for streaming.
func OpenBinary(path string) (*BinaryScanner, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	sc, err := NewBinaryScanner(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return sc, f, nil
}
