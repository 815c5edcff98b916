package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpec drives arbitrary request bodies through the submit path's
// strict decode, Normalize, Validate and Key. None of them may panic. A
// spec that validates must build, and its key must survive a JSON
// re-encode and must not depend on sim_workers (accepted and ignored).
// The seed corpus under testdata/fuzz/FuzzSpec holds the soak test's specs.
func FuzzSpec(f *testing.F) {
	// accept mirrors handleSubmit: unknown fields are an error.
	accept := func(data []byte) (req SubmitRequest, ok bool) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return req, false
		}
		req.Spec.Normalize()
		return req, req.Spec.Validate() == nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, ok := accept(data)
		if !ok {
			return
		}
		if _, err := req.Spec.buildConfig(); err != nil {
			t.Fatalf("accepted spec does not build: %v\n%s", err, data)
		}
		key, err := req.Spec.Key()
		if err != nil {
			t.Fatalf("accepted spec has no key: %v\n%s", err, data)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, ok := accept(enc)
		if !ok {
			t.Fatalf("re-encoded request no longer accepted:\n%s", enc)
		}
		if k, err := again.Spec.Key(); err != nil || k != key {
			t.Fatalf("key changed across a re-encode: %s -> %s (%v)\n%s", key, k, err, enc)
		}
		for _, w := range []int{0, MaxSimWorkers} {
			s := req.Spec
			s.SimWorkers = w
			if k, err := s.Key(); err != nil || k != key {
				t.Fatalf("sim_workers=%d changed the key: %s -> %s (%v)", w, key, k, err)
			}
		}
	})
}
