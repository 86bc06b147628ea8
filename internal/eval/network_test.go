package eval

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestNetworkVsK(t *testing.T) {
	rows, err := NetworkVsK(refField(), []int{30, 80}, 10, 25, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no connected placements")
	}
	for _, r := range rows {
		if r.TotalTx <= 0 {
			t.Errorf("k=%d: TotalTx = %d", r.K, r.TotalTx)
		}
		if r.Energy <= 0 {
			t.Errorf("k=%d: Energy = %v", r.K, r.Energy)
		}
		if r.MaxDepth <= 0 {
			t.Errorf("k=%d: MaxDepth = %d", r.K, r.MaxDepth)
		}
		if r.Bottleneck <= 0 || r.Bottleneck > r.TotalTx {
			t.Errorf("k=%d: Bottleneck = %d", r.K, r.Bottleneck)
		}
	}
	// More nodes, more total transmissions.
	if len(rows) == 2 && rows[1].TotalTx <= rows[0].TotalTx {
		t.Errorf("tx did not grow with k: %d -> %d", rows[0].TotalTx, rows[1].TotalTx)
	}
}

func TestNetworkVsKBadParams(t *testing.T) {
	if _, err := NetworkVsK(refField(), nil, 10, 100, 100, nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("want ErrBadParams, got %v", err)
	}
}

func TestWriteNetworkTable(t *testing.T) {
	rows := []NetworkRow{{
		K: 30, Delta: 1.5, Relays: 10, TotalTx: 99, Energy: 1234,
		MaxDepth: 7, Bottleneck: 12, ArticulationPoints: 3,
	}}
	var buf bytes.Buffer
	if err := WriteNetworkTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"biconnected", "30", "1234", "false"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
