package sweep

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
)

// Ledger is the bookkeeping of one sweep, shared by every front door
// that runs a grid: Run's worker pool, the distributed coordinator and
// the service's sweep jobs. It replays a checkpoint under one resume
// rule, records each finished cell — persisted before it counts as done
// — in completion order, and renders the checkpoint stream and the
// Report. Who computes a cell is the caller's business. Safe for
// concurrent use.
type Ledger struct {
	spec       Spec
	cells      []Cell
	specDigest string

	mu      sync.Mutex
	ckpt    *CheckpointWriter
	results []Result
	done    []bool
	order   []int // done cells: replayed ones first, then in recording order
	failed  int
	resumed int
}

// OpenLedger normalizes and validates spec and opens its ledger. With a
// checkpoint path every recorded cell is appended to that JSONL file,
// which is truncated unless resume is set. With resume a missing or
// empty file is a fresh start, a file whose header names this spec has
// its cells replayed, and any other file is refused: a header from
// another spec, or cell lines with no header at all. logw receives
// warnings about skipped lines; nil discards them.
func OpenLedger(spec Spec, checkpoint string, resume bool, logw io.Writer) (*Ledger, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells := spec.Cells()
	l := &Ledger{spec: spec, cells: cells, specDigest: spec.SpecDigest(),
		results: make([]Result, len(cells)), done: make([]bool, len(cells))}
	if checkpoint == "" {
		return l, nil
	}
	if resume {
		prior, header, err := ReadCheckpoint(checkpoint, logw)
		if err != nil {
			return nil, err
		}
		if header != "" && header != l.specDigest {
			return nil, fmt.Errorf("sweep: checkpoint %s was written by a different spec (digest %s, want %s); refusing resume",
				checkpoint, header, l.specDigest)
		}
		// A headerless file is refused rather than trusted cell by cell;
		// the error names the exact line that adopts it.
		if st, err := os.Stat(checkpoint); header == "" && err == nil && st.Size() > 0 {
			return nil, fmt.Errorf("sweep: checkpoint %s has no spec-digest header; refusing resume. "+
				"If this spec wrote it, prepend the line %s and resume again", checkpoint, headerLine(l.specDigest))
		}
		// Replay re-stamps the index so a reordered (but
		// digest-compatible) spec still aggregates correctly.
		for i, c := range l.cells {
			if r, ok := prior[l.spec.Digest(c)]; ok {
				r.Index = i
				// No file is open yet, so this cannot fail, and replayed
				// cells are not re-recorded: their entries are in it.
				_ = l.Record(r)
				l.resumed++
			}
		}
	}
	ckpt, err := NewCheckpointWriter(checkpoint, l.specDigest, resume)
	if err != nil {
		return nil, err
	}
	l.ckpt = ckpt
	return l, nil
}

// Record admits the result of cell r.Index: appended to the checkpoint
// first, then marked done, so a cell the ledger reports done survives a
// crash. A cell already done keeps its first result.
func (l *Ledger) Record(r Result) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done[r.Index] {
		return nil
	}
	if l.ckpt != nil {
		if err := l.ckpt.Append(r); err != nil {
			return err
		}
	}
	l.results[r.Index] = r
	l.done[r.Index] = true
	l.order = append(l.order, r.Index)
	if r.Err != "" {
		l.failed++
	}
	return nil
}

// Spec is the normalized spec; callers must not modify it.
func (l *Ledger) Spec() *Spec { return &l.spec }

// SpecDigest is the spec's digest, the checkpoint header.
func (l *Ledger) SpecDigest() string { return l.specDigest }

// Digest is cell i's digest.
func (l *Ledger) Digest(i int) string { return l.spec.Digest(l.cells[i]) }

// Pending lists the cells not yet done, in index order.
func (l *Ledger) Pending() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var pending []int
	for i, ok := range l.done {
		if !ok {
			pending = append(pending, i)
		}
	}
	return pending
}

// Done reports whether cell i has a result.
func (l *Ledger) Done(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.done[i]
}

// Progress counts the done cells and, among them, the failed ones.
func (l *Ledger) Progress() (done, failed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order), l.failed
}

// Resumed is the number of cells replayed from the checkpoint.
func (l *Ledger) Resumed() int { return l.resumed }

// Stream renders the done cells as checkpoint JSONL: the spec-digest
// header, then one line per cell in completion order. For a ledger that
// did not resume it is byte-identical to its checkpoint file.
func (l *Ledger) Stream() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var buf bytes.Buffer
	buf.Write(headerLine(l.specDigest))
	buf.WriteByte('\n')
	for _, i := range l.order {
		line, err := cellLine(l.results[i])
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// Report aggregates the done cells in index order; it is Interrupted
// while any cell is missing.
func (l *Ledger) Report() *Report {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := NewReport(&l.spec, l.results, l.done)
	rep.Resumed = l.resumed
	rep.Computed = len(rep.Cells) - l.resumed
	rep.Interrupted = len(rep.Cells) < rep.Total
	return rep
}

// Close closes the checkpoint; the ledger stays readable and later
// Records stay in memory. Idempotent.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ckpt == nil {
		return nil
	}
	err := l.ckpt.Close()
	l.ckpt = nil
	if err != nil {
		return fmt.Errorf("sweep: close checkpoint: %w", err)
	}
	return nil
}
