package dsweep

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/sweep"
)

// fuzzSpec is the 2-cell grid FuzzDsweepMessages plays against.
func fuzzSpec() sweep.Spec {
	s := sweep.Spec{
		Name:   "fuzz",
		Fields: []sweep.FieldSpec{{Kind: "peaks"}},
		Ks:     []int{2, 3},
		Rcs:    []float64{40},
		GridN:  8,
		DeltaN: 8,
	}
	s.Normalize()
	return s
}

// fuzzResult renders a result submission for cell idx under leaseID,
// mangled by mangle before the sum is taken (a no-op keeps it valid).
func fuzzResult(spec *sweep.Spec, idx int, leaseID int64, mangle func(*ResultRequest)) []byte {
	cells := spec.Cells()
	digest := spec.Digest(cells[idx])
	raw, _ := json.Marshal(sweep.Result{Index: idx, Digest: digest, K: cells[idx].K, Delta: 1})
	req := ResultRequest{Worker: "w", LeaseID: leaseID, Index: idx, Digest: digest, Result: raw}
	req.Sum = sweep.IntegritySum(digest, raw)
	mangle(&req)
	body, _ := json.Marshal(req)
	return body
}

// FuzzDsweepMessages drives the coordinator's handler with arbitrary
// bodies to /lease, /heartbeat and /result on a 2-cell spec whose cells
// are both leased (lease 1 on cell 0, lease 2 on cell 1) and whose cell
// 0 is already done. The handler must never panic and must answer only
// 200, 400 or 405; a /result whose digest, sum or lease does not check
// must never raise /status done.
func FuzzDsweepMessages(f *testing.F) {
	spec := fuzzSpec()
	keep := func(*ResultRequest) {}
	f.Add(uint8(0), []byte(`{"worker":"w","max":2}`))
	f.Add(uint8(0), []byte(`{"max":-7}`))
	f.Add(uint8(1), []byte(`{"worker":"w","lease_ids":[1,2,99]}`))
	f.Add(uint8(2), fuzzResult(&spec, 1, 2, keep))
	f.Add(uint8(2), fuzzResult(&spec, 1, 2, func(r *ResultRequest) { r.Sum = "0" + r.Sum }))
	f.Add(uint8(2), fuzzResult(&spec, 1, 1, keep))
	f.Add(uint8(2), fuzzResult(&spec, 1, 2, func(r *ResultRequest) { r.Digest = "feed" }))
	f.Add(uint8(2), fuzzResult(&spec, 1, 2, func(r *ResultRequest) { r.Index = 7 }))
	f.Add(uint8(6), []byte(`{}`))
	f.Add(uint8(2), []byte(`{"index":-1,"result":null}`))
	f.Add(uint8(1), []byte(`not json`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		c, err := NewCoordinator(spec, CoordinatorOptions{LeaseTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		h := c.Handler()
		var lr LeaseResponse
		if code := do(t, h, http.MethodPost, "/lease", LeaseRequest{Worker: "w", Max: 2}, &lr); code != http.StatusOK || len(lr.Leases) != 2 {
			t.Fatalf("setup lease: code %d, %+v", code, lr)
		}
		var rr ResultResponse
		do(t, h, http.MethodPost, "/result", json.RawMessage(fuzzResult(&spec, 0, lr.Leases[0].ID, keep)), &rr)
		if rr.Status != ResultAccepted {
			t.Fatalf("setup result: %+v", rr)
		}

		path := []string{"/lease", "/heartbeat", "/result"}[int(route)%3]
		method := http.MethodPost
		if route&4 != 0 {
			method = http.MethodGet
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed:
		default:
			t.Fatalf("%s %s answered %d: %s", method, path, w.Code, w.Body.String())
		}

		var st StatusResponse
		if code := do(t, h, http.MethodGet, "/status", nil, &st); code != http.StatusOK {
			t.Fatalf("status: code %d", code)
		}
		if st.Done == 1 {
			return
		}
		// Done rose: only a POST /result naming cell 1 with its digest, a
		// matching sum and the live lease 2 may do that.
		var req ResultRequest
		ok := path == "/result" && method == http.MethodPost &&
			json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			req.Index == 1 && req.Digest == c.ledger.Digest(1) && req.LeaseID == lr.Leases[1].ID &&
			req.Sum == sweep.IntegritySum(req.Digest, req.Result)
		if !ok || st.Done != 2 || !st.Complete {
			t.Fatalf("status %+v after %s %s %q", st, method, path, body)
		}
	})
}
