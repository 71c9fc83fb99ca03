package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rock/internal/dataset"
)

func randomTxns(rng *rand.Rand, n int) []dataset.Transaction {
	txns := make([]dataset.Transaction, n)
	for i := range txns {
		sz := rng.Intn(10)
		items := make([]dataset.Item, sz)
		for j := range items {
			items[j] = dataset.Item(rng.Intn(1000))
		}
		txns[i] = dataset.NewTransaction(items...)
	}
	return txns
}

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	txns := randomTxns(rng, 50)
	var buf bytes.Buffer
	if err := WriteText(&buf, txns); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTextAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, txns) {
		t.Fatal("text round trip mismatch")
	}
}

func TestTextScannerStreams(t *testing.T) {
	in := "1 2 3\n\n5 4\n"
	sc := NewTextScanner(strings.NewReader(in))
	t1, err := sc.Next()
	if err != nil || !t1.Equal(dataset.NewTransaction(1, 2, 3)) {
		t.Fatalf("t1 = %v, %v", t1, err)
	}
	t2, err := sc.Next() // blank line = empty transaction
	if err != nil || len(t2) != 0 {
		t.Fatalf("t2 = %v, %v", t2, err)
	}
	t3, err := sc.Next()
	if err != nil || !t3.Equal(dataset.NewTransaction(4, 5)) {
		t.Fatalf("t3 = %v, %v (input not normalized on read)", t3, err)
	}
	if _, err := sc.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestTextScannerBadItem(t *testing.T) {
	sc := NewTextScanner(strings.NewReader("1 x 3\n"))
	if _, err := sc.Next(); err == nil {
		t.Fatal("bad item accepted")
	}
}

// TestTextScannerItemRange: ids outside [0, MaxInt32] are errors, not
// values wrapped into range.
func TestTextScannerItemRange(t *testing.T) {
	for _, line := range []string{"4294967297 -5 3", "2147483648", "1 -1", "-2147483648"} {
		if tx, err := NewTextScanner(strings.NewReader(line + "\n")).Next(); err == nil {
			t.Errorf("%q parsed as %v", line, tx)
		}
	}
	tx, err := NewTextScanner(strings.NewReader("2147483647 0 +5\n")).Next()
	if err != nil || !tx.Equal(dataset.NewTransaction(0, 5, math.MaxInt32)) {
		t.Fatalf("edge ids: %v, %v", tx, err)
	}
}

// TestBinaryScannerItemRange: a delta that carries an id outside
// [0, MaxInt32] is an error, however large it is; a wrapped delta that
// steps down to a smaller id is not, and WriteBinary refuses negative ids.
func TestBinaryScannerItemRange(t *testing.T) {
	encode := func(deltas ...uint64) []byte {
		b := append([]byte("ROCK"), 1, byte(len(deltas)))
		for _, d := range deltas {
			b = binary.AppendUvarint(b, d)
		}
		return b
	}
	for _, deltas := range [][]uint64{{1 << 32}, {math.MaxInt32, 1}, {3, math.MaxUint64 - 5}, {1<<32 + 1}} {
		sc, err := NewBinaryScanner(bytes.NewReader(encode(deltas...)))
		if err != nil {
			t.Fatal(err)
		}
		if tx, err := sc.Next(); err == nil {
			t.Errorf("deltas %v parsed as %v", deltas, tx)
		}
	}
	sc, err := NewBinaryScanner(bytes.NewReader(encode(0, math.MaxInt32)))
	if err != nil {
		t.Fatal(err)
	}
	if tx, err := sc.Next(); err != nil || !tx.Equal(dataset.NewTransaction(0, math.MaxInt32)) {
		t.Fatalf("edge ids: %v, %v", tx, err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []dataset.Transaction{{5, 3}}); err != nil {
		t.Fatal(err)
	}
	if sc, err = NewBinaryScanner(&buf); err != nil {
		t.Fatal(err)
	}
	if tx, err := sc.Next(); err != nil || !tx.Equal(dataset.Transaction{5, 3}) {
		t.Fatalf("unsorted round trip: %v, %v", tx, err)
	}
	if err := WriteBinary(io.Discard, []dataset.Transaction{{-1, 2}}); err == nil {
		t.Fatal("WriteBinary accepted a negative id")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	txns := randomTxns(rng, 200)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, txns); err != nil {
		t.Fatal(err)
	}
	sc, err := NewBinaryScanner(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Count() != 200 {
		t.Fatalf("count = %d", sc.Count())
	}
	var got []dataset.Transaction
	for {
		tx, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tx)
	}
	if len(got) != len(txns) {
		t.Fatalf("read %d, want %d", len(got), len(txns))
	}
	for i := range got {
		if !got[i].Equal(txns[i]) {
			t.Fatalf("transaction %d mismatch: %v vs %v", i, got[i], txns[i])
		}
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	if _, err := NewBinaryScanner(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, randomTxns(rand.New(rand.NewSource(3)), 10)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-3]
	sc, err := NewBinaryScanner(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := sc.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				t.Fatal("truncated stream reported clean EOF")
			}
			return // got a real error, as expected
		}
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	txns := randomTxns(rand.New(rand.NewSource(4)), 30)

	tp := filepath.Join(dir, "t.txt")
	if err := SaveText(tp, txns); err != nil {
		t.Fatal(err)
	}
	got, err := LoadText(tp)
	if err != nil || !reflect.DeepEqual(got, txns) {
		t.Fatalf("text file round trip: %v", err)
	}

	bp := filepath.Join(dir, "t.bin")
	if err := SaveBinary(bp, txns); err != nil {
		t.Fatal(err)
	}
	sc, closer, err := OpenBinary(bp)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	n := 0
	for {
		_, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(txns) {
		t.Fatalf("binary file has %d transactions", n)
	}
}

func TestCategoricalRoundTrip(t *testing.T) {
	schema := dataset.NewSchema(
		dataset.Attribute{Name: "color", Domain: []string{"red", "green"}},
		dataset.Attribute{Name: "size", Domain: []string{"s", "m", "l"}},
	)
	records := []dataset.Record{
		{0, 2},
		{1, dataset.Missing},
		{dataset.Missing, 0},
	}
	var buf bytes.Buffer
	if err := WriteCategorical(&buf, schema, records); err != nil {
		t.Fatal(err)
	}
	gs, gr, err := ReadCategorical(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gs.Attrs, schema.Attrs) {
		t.Fatalf("schema mismatch: %v", gs.Attrs)
	}
	if !reflect.DeepEqual(gr, records) {
		t.Fatalf("records mismatch: %v vs %v", gr, records)
	}
}

func TestCategoricalRejectsUnknownValue(t *testing.T) {
	in := "# attr color red green\nblue\n"
	if _, _, err := ReadCategorical(strings.NewReader(in)); err == nil {
		t.Fatal("unknown value accepted")
	}
}

func TestCategoricalRejectsWrongArity(t *testing.T) {
	in := "# attr color red green\n# attr size s l\nred\n"
	if _, _, err := ReadCategorical(strings.NewReader(in)); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestCategoricalFileHelpers(t *testing.T) {
	dir := t.TempDir()
	schema := dataset.NewSchema(dataset.Attribute{Name: "a", Domain: []string{"x", "y"}})
	records := []dataset.Record{{0}, {1}, {dataset.Missing}}
	p := filepath.Join(dir, "c.txt")
	if err := SaveCategorical(p, schema, records); err != nil {
		t.Fatal(err)
	}
	_, gr, err := LoadCategorical(p)
	if err != nil || !reflect.DeepEqual(gr, records) {
		t.Fatalf("round trip: %v %v", gr, err)
	}
}

func TestBinaryDeltaEncodingCompact(t *testing.T) {
	// Sorted dense transactions should delta-encode to ~1 byte per item.
	txns := make([]dataset.Transaction, 1)
	items := make([]dataset.Item, 1000)
	for i := range items {
		items[i] = dataset.Item(i * 2)
	}
	txns[0] = dataset.NewTransaction(items...)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, txns); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 1100 {
		t.Fatalf("encoded size %d, want near 1000 bytes", buf.Len())
	}
}

func TestGzipBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	txns := randomTxns(rand.New(rand.NewSource(5)), 500)
	gz := filepath.Join(dir, "t.bin.gz")
	if err := SaveBinaryGz(gz, txns); err != nil {
		t.Fatal(err)
	}
	sc, closer, err := OpenBinaryGz(gz)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	n := 0
	for {
		tx, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !tx.Equal(txns[n]) {
			t.Fatalf("transaction %d mismatch", n)
		}
		n++
	}
	if n != len(txns) {
		t.Fatalf("read %d of %d", n, len(txns))
	}
	// The gzipped file should be smaller than the raw binary.
	raw := filepath.Join(dir, "t.bin")
	if err := SaveBinary(raw, txns); err != nil {
		t.Fatal(err)
	}
	gi, _ := osStat(gz)
	ri, _ := osStat(raw)
	if gi >= ri {
		t.Errorf("gzip size %d not below raw %d", gi, ri)
	}
}

func osStat(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func TestOpenBinaryGzRejectsPlain(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "plain.bin")
	if err := SaveBinary(p, randomTxns(rand.New(rand.NewSource(6)), 5)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenBinaryGz(p); err == nil {
		t.Fatal("plain file accepted as gzip")
	}
}
