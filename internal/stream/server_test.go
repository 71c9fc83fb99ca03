package stream_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rock/internal/dataset"
	"rock/internal/model"
	"rock/internal/promtext"
	"rock/internal/store"
	"rock/internal/stream"
)

// txnLines renders transactions in the ingest wire format.
func txnLines(txns []dataset.Transaction) string {
	var b strings.Builder
	for _, t := range txns {
		for i, it := range t {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", it)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// testTemplateDraws draws k-item subsets of [base, base+20).
func testTemplateDraws(base, count int, rng *rand.Rand) []dataset.Transaction {
	tpl := make(dataset.Transaction, 20)
	for i := range tpl {
		tpl[i] = dataset.Item(base + i)
	}
	out := make([]dataset.Transaction, count)
	for c := range out {
		perm := rng.Perm(20)
		t := make(dataset.Transaction, 15)
		for i := range t {
			t[i] = tpl[perm[i]]
		}
		t.Normalize()
		out[c] = t
	}
	return out
}

func TestServerIngestStatusMetricsPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := stream.New(stream.Config{Theta: 0.5, ReclusterEvery: 32, MinPromote: 8, Seed: 2})
	dir, err := model.OpenDir(store.OS, t.TempDir(), "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	pub := stream.NewPublisher(c, stream.PublishConfig{Dir: dir})
	ts := httptest.NewServer(stream.NewServer(c, pub))
	defer ts.Close()

	// Ingest two clusters' worth of draws plus one malformed line.
	body := txnLines(testTemplateDraws(0, 100, rng)) +
		"not a number\n" +
		txnLines(testTemplateDraws(500, 100, rng))
	resp, err := http.Post(ts.URL+"/v1/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir stream.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ir.Received != 200 || ir.Rejected != 1 {
		t.Fatalf("ingest response %+v, want 200 received 1 rejected", ir)
	}
	if ir.Absorbed+ir.Pooled != ir.Received {
		t.Fatalf("absorbed %d + pooled %d != received %d", ir.Absorbed, ir.Pooled, ir.Received)
	}
	if ir.Absorbed == 0 {
		t.Fatal("nothing absorbed after promotion")
	}

	// Status endpoint agrees.
	resp, err = http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	var si stream.StreamInfo
	if err := json.NewDecoder(resp.Body).Decode(&si); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if si.Arrivals != 200 || len(si.Clusters) != 2 {
		t.Fatalf("status %+v, want 200 arrivals 2 clusters", si)
	}

	// Forced publish writes generation 1.
	resp, err = http.Post(ts.URL+"/v1/publish", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var pr stream.PublishResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if pr.Seq != 1 || pr.Clusters != 2 {
		t.Fatalf("publish response %+v", pr)
	}
	ents, err := dir.List()
	if err != nil || len(ents) != 1 {
		t.Fatalf("dir entries %v, %v", ents, err)
	}

	// Metrics parse and carry the fold counters.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := promtext.Parse(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	promtext.Sum(sums, samples)
	if sums["rock_stream_arrivals_total"] != 200 {
		t.Fatalf("metrics arrivals %v, want 200", sums["rock_stream_arrivals_total"])
	}
	if sums["rock_stream_generations_total"] != 1 {
		t.Fatalf("metrics generations %v, want 1", sums["rock_stream_generations_total"])
	}
	if sums["rock_stream_ingest_errors_total"] != 1 {
		t.Fatalf("metrics ingest errors %v, want 1", sums["rock_stream_ingest_errors_total"])
	}

	// Healthz.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestPublishGuard: a publisher with a tight ceiling refuses to ship while
// the rolling outlier rate is high, and the HTTP surface reports 409.
func TestPublishGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	c := stream.New(stream.Config{Theta: 0.5, ReclusterEvery: 32, MinPromote: 8, WindowSize: 64, Seed: 2})
	dir, err := model.OpenDir(store.OS, t.TempDir(), "model", 0)
	if err != nil {
		t.Fatal(err)
	}
	pub := stream.NewPublisher(c, stream.PublishConfig{
		Dir:            dir,
		MaxOutlierRate: 0.5,
		MinWindow:      32,
	})
	ts := httptest.NewServer(stream.NewServer(c, pub))
	defer ts.Close()

	// Build one real cluster, then flood the window with junk so the
	// rolling outlier rate pins near 1.
	for _, txn := range testTemplateDraws(0, 64, rng) {
		c.Observe(txn)
	}
	next := 1 << 25
	for i := 0; i < 64; i++ {
		j := make(dataset.Transaction, 10)
		for k := range j {
			j[k] = dataset.Item(next)
			next++
		}
		c.Observe(j)
	}
	resp, err := http.Post(ts.URL+"/v1/publish", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("guarded publish returned %d, want 409", resp.StatusCode)
	}
	if c.Metrics().PublishSkipped.Load() != 1 {
		t.Fatalf("publish_skipped %d, want 1", c.Metrics().PublishSkipped.Load())
	}
	if ents, _ := dir.List(); len(ents) != 0 {
		t.Fatalf("guarded publish still wrote %v", ents)
	}
}

func TestTailerFollowsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.txt")
	if err := os.WriteFile(path, []byte("1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := make(chan dataset.Transaction, 16)
	tl := &stream.Tailer{Path: path, Poll: 5 * time.Millisecond, FromStart: true}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		tl.Run(ctx, func(txn dataset.Transaction) { got <- txn })
		close(done)
	}()

	want := func(items ...dataset.Item) {
		t.Helper()
		select {
		case txn := <-got:
			if !txn.Equal(dataset.Transaction(items)) {
				t.Fatalf("tailed %v, want %v", txn, items)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %v", items)
		}
	}
	want(1, 2, 3) // FromStart replays existing content

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A partial line stays buffered until its newline arrives.
	if _, err := f.WriteString("10 2"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)
	select {
	case txn := <-got:
		t.Fatalf("partial line emitted early: %v", txn)
	default:
	}
	if _, err := f.WriteString("0\n7 8 9\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want(10, 20)
	want(7, 8, 9)

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("tailer did not stop on cancel")
	}
}

// TestTailerRejectsOutOfRangeIDs: the tail parses with the text format's
// parser, so a line with an id outside [0, MaxInt32] is reported and
// skipped, not wrapped into range.
func TestTailerRejectsOutOfRangeIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.txt")
	if err := os.WriteFile(path, []byte("4294967297 -5 3\n1 -1\n2147483647 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := make(chan dataset.Transaction, 16)
	bad := make(chan string, 16)
	tl := &stream.Tailer{Path: path, Poll: 5 * time.Millisecond, FromStart: true,
		OnError: func(line string, err error) { bad <- line }}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go tl.Run(ctx, func(txn dataset.Transaction) { got <- txn })
	for _, want := range []string{"4294967297 -5 3", "1 -1"} {
		select {
		case line := <-bad:
			if line != want {
				t.Fatalf("rejected %q, want %q", line, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %q to be rejected", want)
		}
	}
	select {
	case txn := <-got:
		if !txn.Equal(dataset.NewTransaction(4, 2147483647)) {
			t.Fatalf("tailed %v, want [4 2147483647]", txn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the in-range line")
	}
}
