package auditd

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// FuzzJobRequest feeds arbitrary bytes to every job kind's request path:
// the body decodes as that kind's request with unknown fields rejected, as
// over HTTP, and plans against a server with a preloaded database and
// registered providers. Nothing may panic. An accepted request must survive
// the journal's round trip — marshal, decode, plan again — under the same
// content address, or a recovered job would answer a different question.
// The same bytes also go to decodeResult, the disk tier's decoder.
//
// Plain `go test` replays the seeds and testdata/fuzz/FuzzJobRequest;
// `go test -run '^$' -fuzz FuzzJobRequest ./internal/auditd` explores.
func FuzzJobRequest(f *testing.F) {
	reqs := kindRequests()
	for _, k := range jobKinds {
		blob, err := json.Marshal(reqs[k.name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, k := range jobKinds {
		blob, err := encodeResult(k.retitle(k.newResult(), "seed"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}

	s := New(Config{Workers: 1, DB: testDB(f)})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	registerTestProviders(f, s)

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeResult(data)
		for _, k := range jobKinds {
			req := k.newRequest()
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if dec.Decode(req) != nil {
				continue
			}
			p, err := req.plan(s)
			if err != nil {
				continue
			}
			blob, err := json.Marshal(req)
			if err != nil {
				t.Fatalf("%s: accepted request does not marshal: %v", k.name, err)
			}
			replay := k.newRequest()
			if err := json.Unmarshal(blob, replay); err != nil {
				t.Fatalf("%s: journaled request does not decode: %v\n%s", k.name, err, blob)
			}
			p2, err := replay.plan(s)
			if err != nil {
				t.Fatalf("%s: journaled request no longer plans: %v\n%s", k.name, err, blob)
			}
			if p2.key != p.key {
				t.Fatalf("%s: journal replay moved the content address %s → %s\n%s", k.name, p.key, p2.key, blob)
			}
		}
	})
}
