package field

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/geom"
)

// TraceRecord is one row of an environment trace: a timestamped sample,
// in the spirit of the hourly GreenOrbs reports.
type TraceRecord struct {
	// T is the sample time in minutes from scenario start.
	T float64
	// Sample is the measured position and value.
	Sample
}

// WriteTrace serializes records as CSV with a header row
// (t,x,y,z). The format round-trips through ReadTrace.
func WriteTrace(w io.Writer, records []TraceRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t", "x", "y", "z"}); err != nil {
		return fmt.Errorf("field: write trace header: %w", err)
	}
	for i, r := range records {
		row := []string{
			formatFloat(r.T),
			formatFloat(r.Pos.X),
			formatFloat(r.Pos.Y),
			formatFloat(r.Z),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("field: write trace row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("field: flush trace: %w", err)
	}
	return nil
}

// ReadTrace parses a CSV trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]TraceRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("field: read trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("field: read trace: empty input")
	}
	if len(rows[0]) != 4 || rows[0][0] != "t" {
		return nil, fmt.Errorf("field: read trace: unexpected header %v", rows[0])
	}
	out := make([]TraceRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != 4 {
			return nil, fmt.Errorf("field: read trace: row %d has %d fields, want 4", i+1, len(row))
		}
		vals := make([]float64, 4)
		for j, s := range row {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("field: read trace: row %d field %d: %w", i+1, j, err)
			}
			vals[j] = v
		}
		out = append(out, TraceRecord{
			T:      vals[0],
			Sample: Sample{Pos: geom.V2(vals[1], vals[2]), Z: vals[3]},
		})
	}
	return out, nil
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// GenerateTrace samples the dynamic field on an n-division lattice at each
// of the given times, producing a trace in the GreenOrbs style (a full
// region report per epoch).
func GenerateTrace(d DynField, n int, times []float64, s *Sampler) []TraceRecord {
	pos := GridPositions(d.Bounds(), n)
	out := make([]TraceRecord, 0, len(pos)*len(times))
	for _, t := range times {
		for _, p := range pos {
			out = append(out, TraceRecord{T: t, Sample: s.AtTime(d, p, t)})
		}
	}
	return out
}
