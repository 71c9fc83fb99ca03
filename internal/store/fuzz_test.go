package store

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"rock/internal/dataset"
)

// FuzzTextScanner feeds arbitrary bytes to the text parser: it must never
// panic, every id it accepts lies in [0, MaxInt32], and everything it
// accepts must round-trip through WriteText.
func FuzzTextScanner(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("")
	f.Add("0\n\n\n9 9 9\n")
	f.Add("-1 2\n")
	f.Add("99999999999999999999\n")
	f.Add("4294967297 -5 3\n")
	f.Add("2147483647\n")
	f.Add("a b c\n")
	f.Fuzz(func(t *testing.T, in string) {
		sc := NewTextScanner(strings.NewReader(in))
		var txns []dataset.Transaction
		for {
			tx, err := sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return // rejected input is fine; panics are not
			}
			checkItemRange(t, tx)
			txns = append(txns, tx)
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, txns); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadTextAll(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(back) != len(txns) {
			t.Fatalf("round trip %d -> %d transactions", len(txns), len(back))
		}
		for i := range back {
			if !back[i].Equal(txns[i]) {
				t.Fatalf("transaction %d: %v != %v", i, back[i], txns[i])
			}
		}
	})
}

// FuzzBinaryScanner feeds arbitrary bytes to the binary parser: it must
// reject or parse, never panic or over-allocate catastrophically, and every
// id it accepts lies in [0, MaxInt32].
func FuzzBinaryScanner(f *testing.F) {
	var good bytes.Buffer
	WriteBinary(&good, []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3),
		dataset.NewTransaction(),
		dataset.NewTransaction(1000000),
	})
	f.Add(good.Bytes())
	f.Add([]byte("ROCK"))
	f.Add([]byte("ROCK\x01\x02\xff\xff\xff\xff\x07\x01"))
	f.Add([]byte("JUNKxxxx"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		sc, err := NewBinaryScanner(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ { // cap iterations against absurd counts
			tx, err := sc.Next()
			if err != nil {
				return
			}
			checkItemRange(t, tx)
		}
	})
}

// checkItemRange fails on an accepted id outside [0, MaxInt32].
func checkItemRange(t *testing.T, tx dataset.Transaction) {
	t.Helper()
	for _, it := range tx {
		if it < 0 {
			t.Fatalf("accepted item %d out of range in %v", it, tx)
		}
	}
}

// FuzzCategorical round-trips arbitrary header/record text.
func FuzzCategorical(f *testing.F) {
	f.Add("# attr color red green\nred\n?\n")
	f.Add("# attr a x\n# attr b y z\nx,y\nx,?\n")
	f.Add("no header\n")
	f.Add("# attr broken\n")
	f.Fuzz(func(t *testing.T, in string) {
		schema, records, err := ReadCategorical(strings.NewReader(in))
		if err != nil {
			return
		}
		if len(records) == 0 {
			return
		}
		var buf bytes.Buffer
		if err := WriteCategorical(&buf, schema, records); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		_, back, err := ReadCategorical(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(back) != len(records) {
			t.Fatalf("round trip %d -> %d records", len(records), len(back))
		}
	})
}
