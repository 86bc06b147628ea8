package dsweep

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestResumeParity pins the resume contract between the two front doors
// that replay a checkpoint: one partially written checkpoint, resumed
// once through sweep.Run and once through a coordinator plus a single
// HTTP worker, must replay the same number of cells and aggregate to
// byte-identical reports.
func TestResumeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real sweep cells")
	}
	spec := realSpec()
	dir := t.TempDir()
	partial := filepath.Join(dir, "partial.ckpt")
	if _, err := sweep.Run(spec, sweep.RunOptions{Workers: 1, Checkpoint: partial, MaxCells: 3}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(partial)
	if err != nil {
		t.Fatal(err)
	}
	localCkpt := filepath.Join(dir, "local.ckpt")
	distCkpt := filepath.Join(dir, "dist.ckpt")
	for _, p := range []string{localCkpt, distCkpt} {
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	local, err := sweep.Run(spec, sweep.RunOptions{Workers: 2, Checkpoint: localCkpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteJSON(&want, local); err != nil {
		t.Fatal(err)
	}

	c, err := NewCoordinator(spec, CoordinatorOptions{LeaseTTL: 5 * time.Second, Checkpoint: distCkpt, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Resumed() != local.Resumed {
		t.Fatalf("coordinator resumed %d cells, sweep.Run %d", c.Resumed(), local.Resumed)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	if _, err := RunWorker(WorkerOptions{Coordinator: srv.URL, ID: "w", PollInterval: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	dist, complete, err := c.Wait(nil)
	if err != nil || !complete {
		t.Fatalf("Wait: complete=%v err=%v", complete, err)
	}
	if dist.Resumed != local.Resumed || dist.Computed != local.Computed {
		t.Fatalf("distributed resumed/computed %d/%d, local %d/%d",
			dist.Resumed, dist.Computed, local.Resumed, local.Computed)
	}
	var got bytes.Buffer
	if err := sweep.WriteJSON(&got, dist); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("resumed aggregates differ:\n%s\nvs\n%s", got.String(), want.String())
	}
}
