package stream

import (
	"context"
	"os"
	"time"

	"rock/internal/dataset"
	"rock/internal/store"
)

// Tailer follows a transaction text file the way `tail -f` follows a log:
// it polls for appended bytes, parses every complete line with the text
// format's parser (store.ParseTextLine), and hands the transaction to the
// sink. Partial lines (a writer mid-append) stay buffered until their
// newline arrives; a shrinking file is treated as a truncate-and-rewrite
// and re-read from the start. The file not existing yet is not an error —
// the tailer waits for it.
type Tailer struct {
	// Path is the file to follow.
	Path string
	// Poll is the polling interval (default 200ms).
	Poll time.Duration
	// FromStart replays the file's existing content before following; the
	// default starts at the current end, like tail -f.
	FromStart bool
	// OnError, when non-nil, observes per-line parse errors; the tailer
	// skips the line and keeps going either way.
	OnError func(line string, err error)
}

func (t *Tailer) poll() time.Duration {
	if t.Poll <= 0 {
		return 200 * time.Millisecond
	}
	return t.Poll
}

// Run follows the file until ctx is cancelled, calling sink for every
// parsed transaction. Only ctx cancellation ends it; transient read errors
// are retried on the next poll.
func (t *Tailer) Run(ctx context.Context, sink func(dataset.Transaction)) error {
	var offset int64
	var pending []byte
	seeded := t.FromStart // FromStart means offset 0 is already correct
	tick := time.NewTicker(t.poll())
	defer tick.Stop()
	for {
		info, err := os.Stat(t.Path)
		if err == nil {
			if !seeded {
				offset = info.Size()
				seeded = true
			}
			if info.Size() < offset {
				// Truncated: start over, drop any partial line.
				offset = 0
				pending = pending[:0]
			}
			if info.Size() > offset {
				n, err := t.drain(offset, info.Size(), &pending, sink)
				if err == nil {
					offset += n
				}
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// drain reads [offset, size) from the file, emits the complete lines and
// keeps the trailing partial line in *pending. Returns how many bytes were
// consumed from the file.
func (t *Tailer) drain(offset, size int64, pending *[]byte, sink func(dataset.Transaction)) (int64, error) {
	f, err := os.Open(t.Path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	if _, err := f.Seek(offset, 0); err != nil {
		return 0, err
	}
	buf := make([]byte, size-offset)
	n, err := f.Read(buf)
	if n == 0 {
		return 0, err
	}
	buf = buf[:n]
	data := append(*pending, buf...)
	for {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break
		}
		line := string(data[:nl])
		data = data[nl+1:]
		txn, perr := store.ParseTextLine(line)
		if perr != nil {
			if t.OnError != nil {
				t.OnError(line, perr)
			}
			continue
		}
		if len(txn) > 0 {
			sink(txn)
		}
	}
	*pending = append((*pending)[:0], data...)
	return int64(n), nil
}
