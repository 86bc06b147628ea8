package eval

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/field"
)

func TestCompareMobileBadParams(t *testing.T) {
	f := field.NewForest(field.DefaultForestConfig())
	if _, err := CompareMobile(f, 0, 5, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
	// Two CMA nodes have no δ to compare.
	if _, err := CompareMobile(f, 2, 5, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("k=2: want ErrBadParams, got %v", err)
	}
	if _, err := CompareMobile(f, 5, 0, 10); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
}

func TestCompareMobile(t *testing.T) {
	f := field.NewForest(field.DefaultForestConfig())
	rows, err := CompareMobile(f, 100, 6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "cma" || rows[1].Name != "central" {
		t.Fatalf("rows = %+v", rows)
	}
	// The paper's qualitative claim: CMA keeps the network connected
	// every slot.
	if rows[0].ConnectedFrac != 1 {
		t.Errorf("CMA connected fraction = %v, want 1", rows[0].ConnectedFrac)
	}
	for _, r := range rows {
		if r.DeltaEnd <= 0 || r.DeltaMin <= 0 || r.DeltaMin > r.DeltaEnd+1e-9 && r.DeltaMin <= 0 {
			t.Errorf("%s: deltas = %v/%v", r.Name, r.DeltaEnd, r.DeltaMin)
		}
		if r.Messages <= 0 {
			t.Errorf("%s: messages = %d", r.Name, r.Messages)
		}
	}
	if rows[0].Messages != 600 {
		t.Errorf("CMA messages = %d, want 600 (k per slot)", rows[0].Messages)
	}
}

func TestWriteMobileTable(t *testing.T) {
	rows := []MobileRow{{Name: "cma", DeltaEnd: 1, DeltaMin: 0.5, ConnectedFrac: 1, Messages: 7}}
	var buf bytes.Buffer
	if err := WriteMobileTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cma") || !strings.Contains(buf.String(), "strategy") {
		t.Errorf("table = %q", buf.String())
	}
}
