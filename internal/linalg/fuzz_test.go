package linalg

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// FuzzLeastSquaresHuber feeds arbitrary m×3 and m×6 systems (wide
// selects the six-column quadric shape of the curvature fit's hot path) to
// the robust solver and asserts its contracts: finite, bounded inputs
// never produce non-finite coefficients (nor a panic); a fresh workspace
// returns the bits of the independent row-major oracle
// refLeastSquaresHuber, and one that has already solved other systems
// returns the same bits; and on outlier-free data — b constructed exactly
// as A·x₀, where the residual spread collapses to FP dust — the routine
// returns the plain QR least-squares solution unchanged, bit for bit.
func FuzzLeastSquaresHuber(f *testing.F) {
	seed := func(vals ...float64) []byte {
		out := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	// A well-conditioned 5×3 system: A columns [1, x, x²], b mixed.
	f.Add(seed(
		1, 0, 0, 1, 1, 1, 1, 2, 4, 1, 3, 9, 1, 4, 16, // A rows
		0.5, 1.5, 4.2, 9.1, 16.3, // b
		2, -1, 0.5, // x0
	), false)
	// A 7×6 quadric design [x², xy, y², x, y, 1] with one gross outlier.
	f.Add(seed(
		0, 0, 0, 0, 0, 1,
		1, 0, 0, 1, 0, 1,
		0, 0, 1, 0, 1, 1,
		1, 1, 1, 1, 1, 1,
		4, -2, 1, -2, 1, 1,
		1, -2, 4, 1, -2, 1,
		4, 4, 4, 2, 2, 1, // A rows
		1, 2.1, 0.9, 3, 40, 2.2, 7.1, // b
		0.5, -0.25, 1, 0.1, -0.2, 1, // x0
	), true)

	// shared has solved every earlier input, so reuse bugs surface as a
	// difference from the fresh-workspace wrapper.
	var shared LSQ
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		vals := decodeFloats(data, 1e8)
		n := 3
		if wide {
			n = 6
		}
		m := (len(vals) - n) / (n + 1)
		if m > 12 {
			m = 12
		}
		if m < n {
			return // underdetermined systems are rejected upstream
		}
		a := NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, vals[i*n+j])
			}
		}
		b := vals[m*n : m*n+m]
		x0 := vals[m*n+m : m*n+m+n]

		// Contract 1: arbitrary finite b never yields non-finite output.
		x, err := LeastSquaresHuber(a, b, 0, 0)
		if err == nil {
			requireFinite(t, "huber(a, b)", x)
		}

		// Contract 2: the fresh solve is the row-major oracle's bit for
		// bit, and workspace reuse is invisible.
		want, errW := refLeastSquaresHuber(a, b, 0, 0)
		sameSolution(t, "huber(a, b) vs oracle", x, err, want, errW)
		reused, errU := shared.SolveHuber(a, b, 0, 0)
		if (err == nil) != (errU == nil) {
			t.Fatalf("fresh err=%v but reused err=%v on the same system", err, errU)
		}
		for j := range x {
			if math.Float64bits(reused[j]) != math.Float64bits(x[j]) {
				t.Fatalf("reused workspace diverged from a fresh one: %v vs %v", reused, x)
			}
		}

		// Contract 3: zero outliers. b′ = A·x₀ computed by the same MulVec
		// the solver uses internally, so the first iterate's residuals are
		// bit-zero and the routine must return the plain QR solution.
		bc, err := a.MulVec(x0)
		if err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		plain, errP := LeastSquares(a, bc)
		robust, errR := LeastSquaresHuber(a, bc, 0, 0)
		if (errP == nil) != (errR == nil) {
			t.Fatalf("plain err=%v but robust err=%v on the same system", errP, errR)
		}
		if errP != nil {
			return // singular either way: consistent rejection is the contract
		}
		requireFinite(t, "huber(a, A·x0)", robust)
		// Exact agreement is only promised when the residual spread
		// collapses under the solver's own scale test; re-derive it here.
		ax, err := a.MulVec(plain)
		if err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		absRes := make([]float64, m)
		maxB := 0.0
		for i := range absRes {
			absRes[i] = math.Abs(ax[i] - bc[i])
			if v := math.Abs(bc[i]); v > maxB {
				maxB = v
			}
		}
		sort.Float64s(absRes)
		med := absRes[m/2]
		if m%2 == 0 {
			med = (absRes[m/2-1] + absRes[m/2]) / 2
		}
		if 1.4826*med <= 1e-10*(1+maxB) {
			for j := range plain {
				if robust[j] != plain[j] {
					t.Fatalf("zero-outlier huber diverged from plain LSQ: %v vs %v", robust, plain)
				}
			}
		}
	})
}

// decodeFloats splits data into 8-byte little-endian float64s, dropping
// non-finite values and any with magnitude above limit — the fuzz contract
// is over finite, bounded inputs.
func decodeFloats(data []byte, limit float64) []float64 {
	vals := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > limit {
			continue
		}
		vals = append(vals, v)
	}
	return vals
}

func requireFinite(t *testing.T, what string, x []float64) {
	t.Helper()
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s coefficient %d is non-finite: %v (all: %v)", what, j, v, x)
		}
	}
}
