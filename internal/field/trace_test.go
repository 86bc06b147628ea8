package field

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
)

func TestTraceRoundTrip(t *testing.T) {
	in := []TraceRecord{
		{T: 0, Sample: Sample{Pos: geom.V2(1.5, 2.25), Z: 3.125}},
		{T: 5, Sample: Sample{Pos: geom.V2(0, 0), Z: -1}},
		{T: 5, Sample: Sample{Pos: geom.V2(99.5, 100), Z: 0.000125}},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("record %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad-header", "a,b,c,d\n"},
		{"bad-float", "t,x,y,z\n1,2,zzz,4\n"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadTrace(strings.NewReader(tc.in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestReadTraceFieldCountMismatch(t *testing.T) {
	// csv.Reader itself rejects ragged rows; verify we surface an error.
	if _, err := ReadTrace(strings.NewReader("t,x,y,z\n1,2,3\n")); err == nil {
		t.Error("want error for short row")
	}
}

func TestGenerateTrace(t *testing.T) {
	d := Static(Plane(geom.Square(10), 1, 0, 0))
	recs := GenerateTrace(d, 2, []float64{0, 10}, NewSampler(0, 1))
	if len(recs) != 18 { // 9 lattice positions × 2 epochs
		t.Fatalf("len = %d, want 18", len(recs))
	}
	for _, r := range recs {
		if r.Z != r.Pos.X {
			t.Fatalf("record %+v inconsistent with field", r)
		}
	}
}
