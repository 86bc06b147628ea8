package sweep

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/field"
	"repro/internal/geom"
)

// This file is the sweep's dynamic-environment axes (ROADMAP item 4):
// DynFieldSpec parameterizes generated time-varying fields (the
// advection–diffusion plume), TraceSpec replays recorded CSV traces.
// Both join FieldSpec in the cartesian product as a third kind of
// environment coordinate, and both feed the cell digest — a plume knob
// or a trace byte changing invalidates exactly the affected cells, and
// checkpoints from specs that predate these axes can never satisfy a
// dynamic cell because their digests use distinct prefixes.

// DynFieldSpec selects and parameterizes one generated time-varying
// environment. Kind is mandatory; today's only kind is "plume", built
// through field.PlumeScenario.
type DynFieldSpec struct {
	// Kind names the generator; only "plume" is accepted.
	Kind string `json:"kind"`
	// Seed drives the scenario layout (source positions, wind direction);
	// 0 defaults to 1.
	Seed int64 `json:"seed,omitempty"`
	// Size is the square region side in meters; 0 defaults to 100.
	Size float64 `json:"size,omitempty"`
	// Sources is the number of releases; 0 defaults to 2.
	Sources int `json:"sources,omitempty"`
	// Wind is the advection speed in meters per minute; 0 defaults to
	// 0.6 (use a tiny value for a near-still plume).
	Wind float64 `json:"wind,omitempty"`
	// Diffusion grows each source's σ² per minute; 0 defaults to 0.8.
	Diffusion float64 `json:"diffusion,omitempty"`
	// Decay is the first-order mass-loss rate per minute; 0 conserves
	// mass.
	Decay float64 `json:"decay,omitempty"`
	// SplitAt, when positive, splits every even source at that time.
	SplitAt float64 `json:"split_at,omitempty"`
}

// dynFieldKinds lists the accepted DynFieldSpec kinds.
var dynFieldKinds = map[string]bool{"plume": true}

// Validate rejects unknown kinds and malformed knobs.
func (ds DynFieldSpec) Validate() error {
	if !dynFieldKinds[ds.Kind] {
		return fmt.Errorf("sweep: unknown dynfield kind %q", ds.Kind)
	}
	if ds.Size < 0 || ds.Sources < 0 || ds.Wind < 0 || ds.Diffusion < 0 ||
		ds.Decay < 0 || ds.SplitAt < 0 {
		return fmt.Errorf("sweep: negative dynfield parameter in %+v", ds)
	}
	if ds.Sources > maxFeatures {
		return fmt.Errorf("sweep: %w: sources=%d (at most %d)", ErrOverBudget, ds.Sources, maxFeatures)
	}
	return nil
}

// WriteDigest writes the dynamic field's identity tuple, as
// FieldSpec.WriteDigest does for a plain field; the distinct prefix keeps
// it from ever matching a plain field's.
func (ds DynFieldSpec) WriteDigest(w io.Writer) {
	fmt.Fprintf(w, "dynfield=%s|%d|%g|%d|%g|%g|%g|%g;", ds.Kind, ds.Seed,
		ds.Size, ds.Sources, ds.Wind, ds.Diffusion, ds.Decay, ds.SplitAt)
}

// Build constructs the dynamic field; every call returns a fresh
// instance.
func (ds DynFieldSpec) Build() (field.DynField, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	size := ds.Size
	if size <= 0 {
		size = 100
	}
	seed := ds.Seed
	if seed == 0 {
		seed = 1
	}
	sources := ds.Sources
	if sources == 0 {
		sources = 2
	}
	wind := ds.Wind
	if wind == 0 {
		wind = 0.6
	}
	diffusion := ds.Diffusion
	if diffusion == 0 {
		diffusion = 0.8
	}
	return field.PlumeScenario(geom.Square(size), seed, sources, wind,
		diffusion, ds.Decay, ds.SplitAt), nil
}

// Label is the human- and CSV-facing name of the dynamic field, in the
// FieldSpec.Label style.
func (ds DynFieldSpec) Label() string {
	var b strings.Builder
	b.WriteString(ds.Kind)
	if ds.Seed != 0 {
		fmt.Fprintf(&b, "@%d", ds.Seed)
	}
	if ds.Size > 0 && ds.Size != 100 {
		fmt.Fprintf(&b, "/%gm", ds.Size)
	}
	if ds.SplitAt > 0 {
		b.WriteString("+split")
	}
	return b.String()
}

// TraceSpec selects one recorded-trace environment: a CSV time series in
// the WriteTrace format, replayed as a DynField through field.NewReplay.
// Exactly one of Path and Inline must be set — Inline carries the CSV
// text inside the spec itself, so example specs and distributed workers
// need no side files.
type TraceSpec struct {
	// Name overrides the CSV/report label; empty derives one from Path
	// or "trace:inline".
	Name string `json:"name,omitempty"`
	// Path is a CSV trace file readable by the process running the cell.
	Path string `json:"path,omitempty"`
	// Inline is raw CSV trace content embedded in the spec.
	Inline string `json:"inline,omitempty"`
	// Size is the square region side in meters; 0 defaults to 100.
	Size float64 `json:"size,omitempty"`
}

// Validate enforces the Path-XOR-Inline contract.
func (ts TraceSpec) Validate() error {
	if (ts.Path == "") == (ts.Inline == "") {
		return fmt.Errorf("sweep: trace needs exactly one of path and inline")
	}
	if ts.Size < 0 {
		return fmt.Errorf("sweep: negative trace size %g", ts.Size)
	}
	return nil
}

// Build reads the trace and constructs its replay field.
func (ts TraceSpec) Build() (field.DynField, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	content := ts.Inline
	if ts.Path != "" {
		raw, err := readTraceFile(ts.Path)
		if err != nil {
			return nil, err
		}
		content = string(raw)
	}
	records, err := field.ReadTrace(strings.NewReader(content))
	if err != nil {
		return nil, err
	}
	size := ts.Size
	if size <= 0 {
		size = 100
	}
	return field.NewReplay(geom.Square(size), records)
}

// Label is the trace's CSV/report name.
func (ts TraceSpec) Label() string {
	if ts.Name != "" {
		return ts.Name
	}
	if ts.Path != "" {
		return "trace:" + filepath.Base(ts.Path)
	}
	return "trace:inline"
}

// traceHashCache memoizes per-path content hashes so enumerating a large
// grid hashes each trace file once, not once per cell.
var traceHashCache sync.Map // path → string

// contentHash is the digest identity of the trace's bytes: an FNV-1a 64
// over the CSV content. A path whose file cannot be read hashes the path
// plus a sentinel — the digest stays stable and the cell's Build
// surfaces the real error.
func (ts TraceSpec) contentHash() string {
	if ts.Inline != "" {
		return fnvString(ts.Inline)
	}
	if h, ok := traceHashCache.Load(ts.Path); ok {
		return h.(string)
	}
	var h string
	if raw, err := readTraceFile(ts.Path); err == nil {
		h = fnvString(string(raw))
	} else {
		h = fnvString("unreadable:" + ts.Path)
	}
	traceHashCache.Store(ts.Path, h)
	return h
}

// maxTraceBytes caps a trace file, so a spec naming a device or a
// runaway file fails its cells fast instead of wedging the caller.
const maxTraceBytes = 64 << 20

// readTraceFile reads a trace file, refusing anything but a regular file
// of at most maxTraceBytes.
func readTraceFile(path string) ([]byte, error) {
	st, err := os.Stat(path)
	if err == nil && (!st.Mode().IsRegular() || st.Size() > maxTraceBytes) {
		err = fmt.Errorf("%s is not a regular file of at most %d bytes", path, maxTraceBytes)
	}
	var raw []byte
	if err == nil {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: trace: %w", err)
	}
	return raw, nil
}

func fnvString(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
