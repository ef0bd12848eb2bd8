package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"indaas/internal/auditd"
	"indaas/internal/depdb"
	"indaas/internal/deps"
	"indaas/internal/report"
	"indaas/internal/sia"
)

// encodeServed encodes a report the way the daemon serves it: indented JSON
// with a trailing newline.
func encodeServed(rep any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canonical re-encodes a served report with the fields that legitimately
// differ between two runs of the same audit cleared: the title, each
// audit's wall-clock elapsed time and, when rename is set, deployment names
// (cold-audit reuses one reference per server pair under fresh names).
func canonical(raw []byte, rename string) ([]byte, error) {
	var rep report.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("decoding report: %w", err)
	}
	rep.Title = ""
	for i := range rep.Audits {
		rep.Audits[i].Elapsed = 0
		if rename != "" {
			rep.Audits[i].Deployment = rename
		}
	}
	return encodeServed(&rep)
}

// buildDB loads records into a fresh in-process database.
func buildDB(records []deps.Record) (*depdb.DB, error) {
	db := depdb.New()
	if err := db.Put(records...); err != nil {
		return nil, err
	}
	return db, nil
}

// specsOf converts a request's deployments to graph specs, and optsOf its
// algorithm fields to audit options, the way the daemon normalizes the
// plain (kind-unrestricted, unweighted) requests this benchmark sends.
func specsOf(req *auditd.SubmitRequest) []sia.GraphSpec {
	specs := make([]sia.GraphSpec, 0, len(req.Deployments))
	for _, d := range req.Deployments {
		specs = append(specs, sia.GraphSpec{Deployment: d.Name, Servers: d.Servers, Needed: d.Needed})
	}
	return specs
}

// specsOfAll concatenates the specs of several requests.
func specsOfAll(reqs []*auditd.SubmitRequest) []sia.GraphSpec {
	var out []sia.GraphSpec
	for _, r := range reqs {
		out = append(out, specsOf(r)...)
	}
	return out
}

func optsOf(req *auditd.SubmitRequest) sia.Options {
	if req.Algorithm != "failure-sampling" {
		return sia.Options{Algorithm: sia.MinimalRG}
	}
	return sia.Options{Algorithm: sia.FailureSampling, Rounds: req.Rounds, Seed: req.Seed, Workers: req.SamplerWorkers}
}

// reference computes the in-process answer to an audit request over db and
// returns its canonical encoding.
func reference(db depdb.Reader, specs []sia.GraphSpec, opts sia.Options, rename string) ([]byte, error) {
	rep, err := sia.AuditDeployments(db, "", specs, opts)
	if err != nil {
		return nil, err
	}
	raw, err := encodeServed(rep)
	if err != nil {
		return nil, err
	}
	return canonical(raw, rename)
}
