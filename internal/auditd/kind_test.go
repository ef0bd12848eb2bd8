package auditd

// Job-kind table tests: every kind's result travels under its declared kind
// (KindHeader on the shared result and cache endpoints), typed fetchers
// refuse other kinds, and CachedAny — the cluster peer tier's probe —
// decodes each kind to its own result type.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// kindRequests returns one small request per table kind.
func kindRequests() map[string]jobRequest {
	return map[string]jobRequest{
		KindAudit:        quickRequest("kinds audit"),
		KindRecommend:    recommendRequest("kinds recommend"),
		KindPrivateAudit: testPrivateAuditRequest("kinds private"),
	}
}

// typedFetchers are the Client's per-kind result fetchers.
var typedFetchers = map[string]func(ctx context.Context, c *Client, id string) (any, error){
	KindAudit: func(ctx context.Context, c *Client, id string) (any, error) { return c.Report(ctx, id) },
	KindRecommend: func(ctx context.Context, c *Client, id string) (any, error) {
		return c.RecommendResult(ctx, id)
	},
	KindPrivateAudit: func(ctx context.Context, c *Client, id string) (any, error) {
		return c.PrivateAuditResult(ctx, id)
	},
}

func TestJobKindsCrossFetch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	registerTestProviders(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	reqs := kindRequests()
	if len(reqs) != len(jobKinds) || len(typedFetchers) != len(jobKinds) {
		t.Fatalf("test covers %d/%d kinds, table has %d", len(reqs), len(typedFetchers), len(jobKinds))
	}
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			st, err := c.SubmitJob(ctx, k.name, reqs[k.name])
			if err != nil {
				t.Fatal(err)
			}
			if end, err := c.WaitDone(ctx, st.ID); err != nil || end.State != StateDone {
				t.Fatalf("WaitDone = %+v, %v", end, err)
			}

			for _, path := range []string{"/v1/audits/" + st.ID + "/report", "/v1/cache/" + st.CacheKey} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if got := resp.Header.Get(KindHeader); resp.StatusCode != 200 || got != k.name {
					t.Errorf("GET %s: %d, %s=%q, want 200 and %q", path, resp.StatusCode, KindHeader, got, k.name)
				}
			}

			for name, fetch := range typedFetchers {
				res, err := fetch(ctx, c, st.ID)
				if name == k.name {
					if err != nil || reflect.TypeOf(res) != k.resultType {
						t.Errorf("own fetcher: %T, %v", res, err)
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), k.name) || !strings.Contains(err.Error(), k.fetcher) {
					t.Errorf("%s fetcher on a %s job = %v; want an error naming %q and %s", name, k.name, err, k.name, k.fetcher)
				}
			}

			got, err := c.CachedAny(ctx, st.CacheKey)
			if err != nil || reflect.TypeOf(got) != k.resultType {
				t.Errorf("CachedAny = %T, %v; want %v", got, err, k.resultType)
			}
			rep, err := c.Cached(ctx, st.CacheKey)
			if k == auditKind {
				if err != nil || len(rep.Audits) == 0 {
					t.Errorf("Cached on an audit key = %+v, %v", rep, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), k.name) {
				t.Errorf("Cached on a %s key = %+v, %v; want an error naming the kind", k.name, rep, err)
			}
		})
	}
}

// TestResultCodec pins the disk envelope: every kind's result round-trips
// under its own kind tag, and garbage fails loudly instead of producing a
// zero-valued result.
func TestResultCodec(t *testing.T) {
	if _, err := encodeResult(42); err == nil {
		t.Error("encodeResult accepted an unpersistable type")
	}
	if _, err := decodeResult([]byte("{")); err == nil {
		t.Error("decodeResult accepted truncated JSON")
	}
	if _, err := decodeResult([]byte(`{"kind":"mystery","payload":{}}`)); err == nil {
		t.Error("decodeResult accepted an unknown kind")
	}
	for _, k := range jobKinds {
		res := k.retitle(k.newResult(), "codec "+k.name)
		blob, err := encodeResult(res)
		if err != nil {
			t.Fatal(err)
		}
		var env persistedResult
		if err := json.Unmarshal(blob, &env); err != nil || env.Kind != k.name {
			t.Fatalf("%s envelope kind = %q, %v", k.name, env.Kind, err)
		}
		back, err := decodeResult(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("%s round-trip = %#v, want %#v", k.name, back, res)
		}
	}
}
