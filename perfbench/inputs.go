package main

// Every input the daemon sees is generated here from (workload, seed): the
// dependency records it is bootstrapped with, the audits that prime it, and
// the timed request stream. Nothing is read from disk or picked by hand.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"indaas/internal/agentsim"
	"indaas/internal/auditd"
	"indaas/internal/deps"
	"indaas/internal/topology"
)

// rngFor derives an independent generator for one stream of a workload.
func rngFor(workload string, seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", workload, seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// fatTreeRecords returns the network records of one server per ToR of a
// k-port fat tree (k²/2 servers, (k/2)² routes each): at k=16, 128 servers
// and 8,192 records; at k=8, 32 servers and 512 records. With perToR < 0
// every server is included.
func fatTreeRecords(k, perToR int) ([]deps.Record, []string, error) {
	ft, err := topology.FatTree(k)
	if err != nil {
		return nil, nil, err
	}
	var servers []string
	if perToR < 0 {
		servers = ft.Servers()
	} else {
		for p := 0; p < k; p++ {
			for t := 0; t < k/2; t++ {
				for s := 0; s < perToR; s++ {
					servers = append(servers, topology.FatTreeServer(p, t, s))
				}
			}
		}
	}
	var out []deps.Record
	for _, s := range servers {
		routes, err := ft.RoutesToInternet(s)
		if err != nil {
			return nil, nil, err
		}
		for _, r := range routes {
			out = append(out, deps.NewNetwork(s, "Internet", r...))
		}
	}
	return out, servers, nil
}

// ---- cold-audit ----

const (
	coldK           = 16
	coldPairs       = 4 // distinct cross-pod server pairs the stream draws from
	samplingRounds  = 20_000
	coldSampleSeed  = 7
	coldRecordsWant = 8192
)

// coldPairPool draws the seeded cross-pod pairs over one server per ToR.
func coldPairPool(seed int64) [][2]string {
	rng := rngFor("cold-audit", seed, "pairs")
	half := coldK / 2
	pool := make([][2]string, coldPairs)
	for i := range pool {
		p1 := rng.Intn(coldK)
		p2 := (p1 + 1 + rng.Intn(coldK-1)) % coldK
		pool[i] = [2]string{topology.FatTreeServer(p1, rng.Intn(half), 0), topology.FatTreeServer(p2, rng.Intn(half), 0)}
	}
	return pool
}

// coldClient is one closed-loop client's request sequence. Each request is a
// never-seen deployment name over a pooled pair, so every job computes;
// consecutive requests alternate minimal-rg and failure-sampling, offset by
// client so the two clients mostly run different algorithms at once.
type coldClient struct {
	seed   int64
	client int
	pool   [][2]string
	rng    *rand.Rand
	n      int
}

func newColdClient(seed int64, client int) *coldClient {
	return &coldClient{seed: seed, client: client, pool: coldPairPool(seed),
		rng: rngFor("cold-audit", seed, fmt.Sprintf("client%d", client))}
}

// coldReq is one generated cold-audit request.
type coldReq struct {
	pair     int
	sampling bool
	body     *auditd.SubmitRequest
}

func (c *coldClient) next() coldReq {
	j := c.n
	c.n++
	r := coldReq{pair: c.rng.Intn(len(c.pool)), sampling: (j+c.client)%2 == 1}
	r.body = coldBody(fmt.Sprintf("cold-s%d-c%d-%d", c.seed, c.client, j), c.pool[r.pair], r.sampling)
	return r
}

func coldBody(name string, pair [2]string, sampling bool) *auditd.SubmitRequest {
	req := &auditd.SubmitRequest{
		Title:       "cold-audit",
		Deployments: []auditd.DeploymentWire{{Name: name, Servers: []string{pair[0], pair[1]}}},
	}
	if sampling {
		req.Algorithm = "failure-sampling"
		req.Rounds = samplingRounds
		req.Seed = coldSampleSeed
		req.SamplerWorkers = 1
	}
	return req
}

// ---- hit-mix ----

const (
	hitK       = 8
	hitPrimed  = 2048 // 4x the daemon's default 512-entry memory LRU
	hitRate    = 500  // requests per second, offered open loop
	hitZipfS   = 1.1
	hitWorkers = 2
)

// hitDeployments generates the primed audits: distinct 2- and 3-way
// deployments over every server of the k=8 fat tree, a third each same-edge
// (one ToR), same-pod and cross-pod. Index 0 is the hottest key of the
// Zipf draw.
func hitDeployments(seed int64) []*auditd.SubmitRequest {
	rng := rngFor("hit-mix", seed, "prime")
	half := hitK / 2
	out := make([]*auditd.SubmitRequest, hitPrimed)
	for i := range out {
		n := 2 + rng.Intn(2)
		seen := map[string]bool{}
		var servers []string
		pod, tor := rng.Intn(hitK), rng.Intn(half)
		for len(servers) < n {
			var s string
			switch i % 3 {
			case 0: // same edge switch
				s = topology.FatTreeServer(pod, tor, rng.Intn(half))
			case 1: // same pod
				s = topology.FatTreeServer(pod, rng.Intn(half), rng.Intn(half))
			default: // anywhere
				s = topology.FatTreeServer(rng.Intn(hitK), rng.Intn(half), rng.Intn(half))
			}
			if !seen[s] {
				seen[s] = true
				servers = append(servers, s)
			}
		}
		out[i] = &auditd.SubmitRequest{
			Title:       "hit-mix",
			Deployments: []auditd.DeploymentWire{{Name: fmt.Sprintf("hm-s%d-%d", seed, i), Servers: servers}},
		}
	}
	return out
}

// openOp is one scheduled request of an open-loop stream.
type openOp struct {
	due  time.Duration // offset from the start of the load
	key  int           // hit-mix: primed deployment index
	kind string        // churn-watch: "ingest" or "resubmit"
	body []byte
	recs []deps.Record // churn-watch ingests: the records body carries
}

// hitSchedule is the open-loop stream: fixed-rate arrivals with keys drawn by
// a seeded Zipf over the primed set.
func hitSchedule(seed int64, phase int, bodies [][]byte, d time.Duration) []openOp {
	rng := rngFor("hit-mix", seed, fmt.Sprint("load", phase))
	z := rand.NewZipf(rng, hitZipfS, 1, uint64(len(bodies)-1))
	n := int(d.Seconds() * hitRate)
	out := make([]openOp, n)
	for i := range out {
		k := int(z.Uint64())
		out[i] = openOp{due: time.Duration(i) * time.Second / hitRate, key: k, body: bodies[k]}
	}
	return out
}

// ---- churn-watch ----

const (
	churnK          = 8
	churnHot        = 32 // hot audits, well inside the delta lineage's 256 requests
	churnQuiet      = 32 // servers the hot audits use and churn never touches
	churnPushRecs   = 64 // records per churn push (at least)
	churnRecRate    = 1024
	churnProbePause = 50 * time.Millisecond
)

// churnResubAfter is the offset, after each churn push is due, at which a
// hot resubmit is due (16/s): placed so that the resubmit has finished
// before the next push is due and each latency stays its own.
const churnResubAfter = 25 * time.Millisecond

// churnFleet is the simulated agent fleet the churn-watch daemon is
// bootstrapped from. Probe servers are reserved for the watch probe and
// quiet servers for the hot audits: churn touches neither, so every hot
// resubmit after an ingest is a delta hit (the database changed, its
// subjects did not), while the probe's watch re-audit splices its dirty
// deployment.
type churnFleet struct {
	fleet  *agentsim.Fleet
	probe  []string // 4 servers only the probe touches
	hot    []*auditd.SubmitRequest
	boot   []deps.Record
	stream *agentsim.Churn
}

func newChurnFleet(seed int64) (*churnFleet, error) {
	f, err := agentsim.New(agentsim.Config{K: churnK, Seed: seed})
	if err != nil {
		return nil, err
	}
	servers := f.Servers()
	cf := &churnFleet{fleet: f, probe: servers[:4]}
	batches, err := f.Bootstrap()
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		cf.boot = append(cf.boot, b...)
	}
	rng := rngFor("churn-watch", seed, "hot")
	rest := servers[4 : 4+churnQuiet]
	for i := 0; i < churnHot; i++ {
		a := rest[rng.Intn(len(rest))]
		b := rest[rng.Intn(len(rest))]
		for b == a {
			b = rest[rng.Intn(len(rest))]
		}
		cf.hot = append(cf.hot, &auditd.SubmitRequest{
			Title:       "churn-watch",
			Deployments: []auditd.DeploymentWire{{Name: fmt.Sprintf("hot-s%d-%d", seed, i), Servers: []string{a, b}}},
		})
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "churn-watch/%d/churn", seed)
	cf.stream, err = f.ChurnStream(int64(h.Sum64()>>1), servers[:4+churnQuiet]...)
	return cf, err
}

// watchRequest is the probe subscription: two alternative deployments over
// the reserved servers.
func (cf *churnFleet) watchRequest() *auditd.SubmitRequest {
	return &auditd.SubmitRequest{
		Title: "churn-watch probe",
		Deployments: []auditd.DeploymentWire{
			{Name: "primary", Servers: []string{cf.probe[0], cf.probe[1]}},
			{Name: "secondary", Servers: []string{cf.probe[2], cf.probe[3]}},
		},
	}
}

// churnSchedule is the open-loop stream on the churn connection: churn
// pushes of at least churnPushRecs records paced to churnRecRate records
// per second, each followed by resubmits of seeded hot audits. The churn
// sequence continues across calls.
func (cf *churnFleet) churnSchedule(seed int64, phase int, hotBodies [][]byte, d time.Duration) ([]openOp, error) {
	var ops []openOp
	rng := rngFor("churn-watch", seed, fmt.Sprint("resubmit", phase))
	every := time.Duration(float64(time.Second) * churnPushRecs / churnRecRate)
	for at := time.Duration(0); at < d; at += every {
		var batch []deps.Record
		for len(batch) < churnPushRecs {
			b, err := cf.stream.Next()
			if err != nil {
				return nil, err
			}
			batch = append(batch, b.Records...)
		}
		body := mustJSON(&auditd.IngestRequest{Records: auditd.WireRecords(batch)})
		ops = append(ops, openOp{due: at, kind: "ingest", body: body, recs: batch})
		k := rng.Intn(len(hotBodies))
		ops = append(ops, openOp{due: at + churnResubAfter, key: k, kind: "resubmit", body: hotBodies[k]})
	}
	return ops, nil
}

// ---- fleet-fanout ----

const (
	fleetK           = 8
	fleetDeployments = 8
)

// fleetClient generates 8-deployment audits with fresh names over the k=8
// fat tree, alternating entry nodes.
type fleetClient struct {
	seed    int64
	client  int
	servers []string
	rng     *rand.Rand
	n       int
}

func newFleetClient(seed int64, client int, servers []string) *fleetClient {
	return &fleetClient{seed: seed, client: client, servers: servers,
		rng: rngFor("fleet-fanout", seed, fmt.Sprintf("client%d", client))}
}

func (c *fleetClient) next() (*auditd.SubmitRequest, int) {
	j := c.n
	c.n++
	req := &auditd.SubmitRequest{Title: "fleet-fanout"}
	for d := 0; d < fleetDeployments; d++ {
		a := c.servers[c.rng.Intn(len(c.servers))]
		b := c.servers[c.rng.Intn(len(c.servers))]
		for b == a {
			b = c.servers[c.rng.Intn(len(c.servers))]
		}
		req.Deployments = append(req.Deployments, auditd.DeploymentWire{
			Name: fmt.Sprintf("ff-s%d-c%d-%d-%d", c.seed, c.client, j, d), Servers: []string{a, b},
		})
	}
	return req, (j + c.client) % 2
}
