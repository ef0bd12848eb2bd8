package report

// Packed is an immutable, compact form of a Report for long retention, as
// in a result cache. Each audit's RG components become indices into that
// audit's table of distinct labels: a retained RG member costs 4 bytes
// instead of a 16-byte string header, and the member lists hold no pointers
// for the garbage collector to scan: a k=16 Fig. 7 minimal-RG report (767
// RGs) drops from ~0.57 MB to ~0.13 MB of live heap. Unpack restores a
// report equal to the packed one, nil slices included.
type Packed struct {
	Title  string
	audits []packedAudit
}

type packedAudit struct {
	head    DeploymentAudit // every field but RGs
	rgsNil  bool
	labels  []string   // distinct component labels, in order of first use
	members []uint32   // label indices of every RG's components, back to back
	rgs     []packedRG // rgs[j] owns members[rgs[j-1].end:rgs[j].end]
}

type packedRG struct {
	end              uint32
	nilComponents    bool
	size             int
	prob, importance float64
}

// Pack returns the compact form of r. r's slices are shared, not copied, so
// r must not be modified afterwards.
func Pack(r *Report) *Packed {
	p := &Packed{Title: r.Title}
	if r.Audits != nil {
		p.audits = make([]packedAudit, len(r.Audits))
	}
	for i := range r.Audits {
		a := &r.Audits[i]
		pa := &p.audits[i]
		pa.head, pa.head.RGs, pa.rgsNil = *a, nil, a.RGs == nil
		n := 0
		for _, rg := range a.RGs {
			n += len(rg.Components)
		}
		pa.members = make([]uint32, 0, n)
		pa.rgs = make([]packedRG, len(a.RGs))
		index := make(map[string]uint32)
		for j, rg := range a.RGs {
			for _, l := range rg.Components {
				id, ok := index[l]
				if !ok {
					id = uint32(len(pa.labels))
					index[l] = id
					pa.labels = append(pa.labels, l)
				}
				pa.members = append(pa.members, id)
			}
			pa.rgs[j] = packedRG{end: uint32(len(pa.members)), nilComponents: rg.Components == nil,
				size: rg.Size, prob: rg.Prob, importance: rg.Importance}
		}
	}
	return p
}

// Unpack rebuilds the report. Every call returns a fresh Report, audits and
// RG entries; the RG components of one audit share one fresh backing array,
// while the audits' Sources stay shared with the packed form (read-only).
func (p *Packed) Unpack() *Report {
	r := &Report{Title: p.Title}
	if p.audits != nil {
		r.Audits = make([]DeploymentAudit, len(p.audits))
	}
	for i := range p.audits {
		pa := &p.audits[i]
		a := &r.Audits[i]
		*a = pa.head
		if pa.rgsNil {
			continue
		}
		comps := make([]string, len(pa.members))
		for k, id := range pa.members {
			comps[k] = pa.labels[id]
		}
		a.RGs = make([]RGEntry, len(pa.rgs))
		start := uint32(0)
		for j, prg := range pa.rgs {
			e := &a.RGs[j]
			*e = RGEntry{Size: prg.size, Prob: prg.prob, Importance: prg.importance}
			if !prg.nilComponents {
				e.Components = comps[start:prg.end:prg.end]
			}
			start = prg.end
		}
	}
	return r
}
