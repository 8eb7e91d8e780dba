package service

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// FuzzSpecDecode hardens the admission path's decoder: arbitrary bytes fed
// through the same decode+validate sequence the HTTP handler runs must
// yield a structured rejection or a valid spec — never a panic — and a
// spec that passes validation must map onto a flow configuration without
// blowing up, and name its ECO parent (if any) by one path element, a job
// directory inside the store. (Design parsing/generation is exercised
// separately; it is far too heavy for a fuzz inner loop.)
func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"lef":"l","def":"d","k":3,"gamma":0.5}`))
	f.Add([]byte(`{"synthetic":{"name":"x","cells":10,"nets":5},"k":2,"seed":7}`))
	f.Add([]byte(`{"synthetic":{"utilisation":1e308},"flow_budget_ms":-1}`))
	f.Add([]byte(`{"k":-1,"gamma":2}`))
	f.Add([]byte(`{"admission_degradations":["x"]}`))
	f.Add([]byte(`{torn`))
	f.Add([]byte(`{"parent_job":"../other/j000001","eco_delta":{"moves":[]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		if err := sp.Validate(); err != nil {
			return
		}
		if p := sp.ParentJob; p != "" && filepath.Base(p) != p {
			t.Fatalf("valid spec's parent_job %q is not one path element", p)
		}
		cfg := sp.FlowConfig()
		if cfg.CRP.Iterations <= 0 {
			t.Fatalf("valid spec %+v produced non-positive iteration count", sp)
		}
		if _, err := specHash(sp); err != nil {
			t.Fatalf("valid spec %+v is unhashable: %v", sp, err)
		}
	})
}

// FuzzLeaseRecord hardens the lease decoder: arbitrary bytes must yield an
// error or a record satisfying the fencing invariants (non-negative
// monotonic-capable token, no owner without a token, sane timestamps), and
// a valid record must survive an encode/decode round trip unchanged —
// the property the shared-store hand-off rests on.
func FuzzLeaseRecord(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"node":"a","token":3,"deadline_unix_ns":5,"renewed_unix_ns":4}`))
	f.Add([]byte(`{"node":"a","token":-1}`))
	f.Add([]byte(`{"node":"a","token":0}`))
	f.Add([]byte(`{"token":9223372036854775807}`))
	f.Add([]byte(`{torn`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeLeaseRecord(data)
		if err != nil {
			return
		}
		if rec.Token < 0 {
			t.Fatalf("decoder accepted negative token: %+v", rec)
		}
		if rec.Node != "" && rec.Token == 0 {
			t.Fatalf("decoder accepted owner without token: %+v", rec)
		}
		if rec.Deadline < 0 || rec.Renewed < 0 {
			t.Fatalf("decoder accepted negative timestamp: %+v", rec)
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("valid record %+v failed to re-encode: %v", rec, err)
		}
		back, err := decodeLeaseRecord(out)
		if err != nil {
			t.Fatalf("re-encoded record %s failed to decode: %v", out, err)
		}
		if back != rec {
			t.Fatalf("round trip changed the record: %+v -> %+v", rec, back)
		}
	})
}
