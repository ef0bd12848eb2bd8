package auditd

// The job-kind table. INDaaS answers three kinds of question — structural
// audits (§4.1), placement recommendations and private audits (§4.2) — and
// they share everything but their request and result types: the queue,
// worker pool, result tiers, coalescing, cancellation and crash journal.
// Every place that does tell kinds apart reads this table: the POST routes,
// journal replay, the persisted result envelope, per-job titles, and the
// client's and cluster peers' result decoding. Adding a kind takes one entry
// here plus its request type (implementing jobRequest) and result type.

import (
	"context"
	"reflect"
	"sync/atomic"

	"indaas/internal/report"
)

// Job kinds: the names a job's kind travels under — Workload.Kind, journal
// records, persisted result envelopes, and the KindHeader of result
// responses.
const (
	KindAudit        = "audit"
	KindRecommend    = "recommend"
	KindPrivateAudit = "private-audit"
)

// KindHeader names the job kind of the result a GET /v1/audits/{id}/report
// or GET /v1/cache/{key} response carries, so clients decode the body by
// its declared kind instead of guessing from its fields.
const KindHeader = "X-Indaas-Kind"

// jobKind is one entry of the kind table.
type jobKind struct {
	name string
	// path is the POST route that submits this kind.
	path string
	// fetcher names the typed Client method returning this kind's result;
	// wrong-kind errors point callers at it.
	fetcher string
	// newRequest allocates an empty request: HTTP bodies and journal
	// records decode into it.
	newRequest func() jobRequest
	// newResult allocates an empty result: the disk tier, the client and
	// the cluster's peer tier decode into it.
	newResult func() any
	// retitle shallow-copies a result (in the form the memory tier retains
	// it) under a per-job title; the payload is shared and immutable.
	retitle func(res any, title string) any
	// resultType is newResult's dynamic type (see kindOfResult).
	resultType reflect.Type
}

// jobRequest is one kind's submission. plan validates and normalizes it
// against the server's state — database snapshot, provider registry,
// delta lineage — and returns the job to enqueue; it enqueues nothing.
// Errors carry their HTTP status (see statusErr).
type jobRequest interface {
	plan(s *Server) (jobPlan, error)
}

// jobPlan is a normalized submission: enqueue's arguments, plus the
// counter of the kind's accepted jobs, if it keeps one.
type jobPlan struct {
	key       string
	title     string
	timeoutMS int64
	run       func(ctx context.Context) (any, error)
	extra     jobExtras
	accepted  *atomic.Int64
}

var (
	auditKind = &jobKind{
		name: KindAudit, path: "/v1/audits", fetcher: "Report",
		newRequest: func() jobRequest { return new(SubmitRequest) },
		newResult:  func() any { return new(report.Report) },
		retitle: func(res any, title string) any {
			if p, ok := res.(*report.Packed); ok {
				cp := *p
				cp.Title = title
				return &cp
			}
			cp := *res.(*report.Report)
			cp.Title = title
			return &cp
		},
	}
	recommendKind = &jobKind{
		name: KindRecommend, path: "/v1/recommend", fetcher: "RecommendResult",
		newRequest: func() jobRequest { return new(RecommendRequest) },
		newResult:  func() any { return new(RecommendResponse) },
		retitle: func(res any, title string) any {
			cp := *res.(*RecommendResponse)
			cp.Title = title
			return &cp
		},
	}
	privateAuditKind = &jobKind{
		name: KindPrivateAudit, path: "/v1/private-audits", fetcher: "PrivateAuditResult",
		newRequest: func() jobRequest { return new(PrivateAuditRequest) },
		newResult:  func() any { return new(PrivateAuditResponse) },
		retitle: func(res any, title string) any {
			cp := *res.(*PrivateAuditResponse)
			cp.Title = title
			return &cp
		},
	}
	jobKinds = []*jobKind{auditKind, recommendKind, privateAuditKind}
)

func init() {
	for _, k := range jobKinds {
		k.resultType = reflect.TypeOf(k.newResult())
	}
}

// kindByName returns the table entry named name, or nil.
func kindByName(name string) *jobKind {
	for _, k := range jobKinds {
		if k.name == name {
			return k
		}
	}
	return nil
}

// kindOfResult returns the entry whose result type res has, or nil. It
// serves the places that hold a bare result rather than its job: the disk
// envelope and the /v1/cache response.
func kindOfResult(res any) *jobKind {
	t := reflect.TypeOf(res)
	for _, k := range jobKinds {
		if k.resultType == t {
			return k
		}
	}
	return nil
}

// submitJob plans req as a job of kind k and enqueues it. recoverID replays
// a journaled job under its original id; forwarded marks a request a
// cluster peer already routed once, which must compute here (single-hop
// ownership). Recovered jobs never forward either.
func (s *Server) submitJob(k *jobKind, req jobRequest, recoverID string, forwarded bool) (JobStatus, error) {
	p, err := req.plan(s)
	if err != nil {
		return JobStatus{}, err
	}
	e := &p.extra
	e.kind, e.req, e.recoverID = k, req, recoverID
	e.noForward = e.noForward || forwarded || recoverID != ""
	st, err := s.enqueue(p.key, p.title, p.timeoutMS, p.run, e)
	if err == nil && p.accepted != nil {
		p.accepted.Add(1)
	}
	return st, err
}
