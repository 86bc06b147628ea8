package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"
)

// The checkpoint file is JSONL: a header line binding the file to its
// spec, then one self-contained line per completed cell, appended and
// flushed as cells finish. Each cell line carries the cell's digest, its
// full Result, and an integrity sum over both, so resuming needs no
// access to the original run — only the spec (to re-derive digests) and
// the file. A process killed mid-write leaves at most one torn final
// line, which fails to parse and is simply recomputed; a line corrupted
// in place (bit rot, concurrent writers, a byzantine worker) fails its
// integrity sum and is skipped with a logged warning. float64 values
// survive the JSON round-trip bit-exactly (encoding/json emits the
// shortest representation that parses back to the same float), which is
// what keeps a resumed sweep's aggregated output byte-identical to an
// uninterrupted one.
type checkpointLine struct {
	// SpecDigest marks the header line (first line of the file): the
	// Spec.SpecDigest of the sweep that wrote it. Resume refuses a file
	// whose header names a different spec, or that has none.
	SpecDigest string `json:"spec_digest,omitempty"`
	// Digest, Result and Sum form a cell line. Result stays raw on read
	// so Sum can be verified over the exact bytes that were written.
	Digest string          `json:"digest,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Sum    string          `json:"sum,omitempty"`
}

// headerLine renders the header line that binds a checkpoint stream to
// its spec. CheckpointWriter and Ledger.Stream share it, so the stream
// speaks the same JSONL format as the on-disk file.
func headerLine(specDigest string) []byte {
	line, _ := json.Marshal(checkpointLine{SpecDigest: specDigest}) // strings always marshal
	return line
}

// cellLine renders one completed cell in the checkpoint line format: the
// cell digest, the raw Result, and the integrity sum over both.
func cellLine(r Result) ([]byte, error) {
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal checkpoint entry: %w", err)
	}
	// raw is valid JSON, so wrapping it cannot fail.
	line, _ := json.Marshal(checkpointLine{Digest: r.Digest, Result: raw, Sum: IntegritySum(r.Digest, raw)})
	return line, nil
}

// IntegritySum is the FNV-1a 64 self-checksum attached to checkpoint
// cell lines and to distributed result submissions: the cell digest, a
// separator, and the marshaled Result bytes. It detects torn or
// corrupted payloads, not adversarial forgery.
func IntegritySum(digest string, result []byte) string {
	h := fnv.New64a()
	io.WriteString(h, digest)
	h.Write([]byte{'\n'})
	h.Write(result)
	return fmt.Sprintf("%016x", h.Sum64())
}

// ReadCheckpoint loads completed-cell results keyed by digest, plus the
// header's spec digest ("" when the file has no header or is
// missing). A missing file is an empty checkpoint. A torn final line —
// the expected residue of a kill mid-write — is skipped silently;
// unparsable or sum-mismatched lines anywhere else are skipped with a
// warning to logw (nil discards warnings), so one flipped bit costs one
// recomputed cell instead of the whole resume.
func ReadCheckpoint(path string, logw io.Writer) (map[string]Result, string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]Result{}, "", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("sweep: open checkpoint: %w", err)
	}
	defer f.Close()
	if logw == nil {
		logw = io.Discard
	}
	prior := make(map[string]Result)
	specDigest := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	// warnings for a line are withheld until the next line proves it was
	// not the torn final write.
	pendingWarn := ""
	for sc.Scan() {
		lineNo++
		if pendingWarn != "" {
			fmt.Fprint(logw, pendingWarn)
			pendingWarn = ""
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e checkpointLine
		if err := json.Unmarshal(line, &e); err != nil {
			pendingWarn = fmt.Sprintf("sweep: checkpoint %s line %d: unparsable, skipping cell\n", path, lineNo)
			continue
		}
		if e.SpecDigest != "" {
			specDigest = e.SpecDigest
			continue
		}
		if e.Digest == "" {
			pendingWarn = fmt.Sprintf("sweep: checkpoint %s line %d: foreign line, skipping\n", path, lineNo)
			continue
		}
		if IntegritySum(e.Digest, e.Result) != e.Sum {
			fmt.Fprintf(logw, "sweep: checkpoint %s line %d: integrity sum mismatch, recomputing cell %s\n",
				path, lineNo, e.Digest)
			continue
		}
		var r Result
		if err := json.Unmarshal(e.Result, &r); err != nil {
			fmt.Fprintf(logw, "sweep: checkpoint %s line %d: bad result payload, recomputing cell %s\n",
				path, lineNo, e.Digest)
			continue
		}
		prior[e.Digest] = r
	}
	if err := sc.Err(); err != nil {
		return nil, "", fmt.Errorf("sweep: read checkpoint: %w", err)
	}
	return prior, specDigest, nil
}

// CheckpointWriter appends one JSONL entry per completed cell. Appends
// are serialized by a mutex — workers call it concurrently — and each
// entry reaches the OS in a single write before Append returns, so a
// kill after a cell's completion never loses that cell.
type CheckpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

// NewCheckpointWriter opens path for appending and stamps the header
// when the file is fresh; with resume=false any existing checkpoint is
// truncated so stale digests cannot accumulate.
func NewCheckpointWriter(path, specDigest string, resume bool) (*CheckpointWriter, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open checkpoint for write: %w", err)
	}
	c := &CheckpointWriter{f: f}
	st, err := f.Stat()
	if err != nil {
		err = fmt.Errorf("sweep: stat checkpoint: %w", err)
	} else if st.Size() == 0 {
		err = c.writeLine(headerLine(specDigest))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// writeLine appends one line under the mutex.
func (c *CheckpointWriter) writeLine(line []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: write checkpoint: %w", err)
	}
	return nil
}

// Append records one completed cell.
func (c *CheckpointWriter) Append(r Result) error {
	line, err := cellLine(r)
	if err != nil {
		return err
	}
	return c.writeLine(line)
}

// Close closes the underlying file.
func (c *CheckpointWriter) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}
