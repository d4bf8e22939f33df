package hier

import (
	"fmt"
	"math"
)

// Report is the outcome of auditing one epoch's tree allocation.
type Report struct {
	// Floors: every demand-positive queue received at least its quota.
	Floors bool
	// SI: sharing incentives between sibling subtrees — every queue
	// weakly prefers its over-quota bundle to the entitlement split of
	// the pool (see AuditTree).
	SI bool
	// EF: envy-freeness between sibling subtrees — no queue prefers a
	// sibling's over-quota bundle scaled by their entitlement ratio.
	EF bool
	// MinSIMargin is the smallest normalized SI log-margin observed
	// (NaN when no queue was eligible); a healthy tree keeps it above
	// ~−tol.
	MinSIMargin float64
	// Findings lists every violation, prefixed hier-floors / hier-si /
	// hier-ef.
	Findings []string
}

// Ok reports whether every audited property held.
func (r Report) Ok() bool { return r.Floors && r.SI && r.EF }

// AuditTree re-derives the fairness guarantees of one allocation from
// first principles, at every internal node, between its children.
//
// Setup, per node with share S: the open market is the resource set
// {r : Õ_r > 0} where Õ_r = S_r − Σ q̃ is the over-quota pool after
// zero-demand floors donate back (quota-saturated resources are closed
// — every child holds exactly its floor there either way). Child c's
// over-quota bundle is z_c = share_c − q̃_c, its aggregate utility is
// the Nash-welfare proxy û_c(x) = Σ_r A_cr·log x_r over its demanded
// open resources, and its entitlement is
//
//	e_c = w_c · Σ_{r open} A_cr   (weight × open-market demand mass,
//	                               = weight × subtree population when
//	                               no resource is quota-saturated).
//
// Properties checked:
//
//   - Floors: a child whose subtree demands resource r (A_cr > 0)
//     holds at least its declared quota on r.
//
//   - SI: û_c(z_c) ≥ û_c(b_c) where b_c = (e_c/Σ_d e_d)·Õ is the
//     entitlement split of the pool — the hierarchical analog of the
//     paper's equal-split C/N baseline (unit weights, one agent per
//     queue, no quotas reduce it to exactly that). This is a theorem,
//     not a hope: z_c is the Cobb-Douglas demand at the CEEI prices
//     p_r = Σ_d w_d·A_dr / Õ_r with budget e_c, and b_c costs exactly
//     e_c, so demand optimality gives the inequality. (A baseline that
//     ignores demand mass — (w_c/Σw)·Õ — is *not* affordable for a
//     queue smaller than the weighted mean and genuinely fails: a
//     one-agent tenant cannot be promised as much as a thousand-agent
//     tenant without breaking agent-level SI beneath it.)
//
//   - EF: û_c(z_c) ≥ û_c((e_c/e_d)·z_d) for every sibling d with
//     e_d > 0 — c does not envy d's bundle scaled by their entitlement
//     ratio. Same budget argument: the scaled bundle costs exactly e_c.
//
// Zero-entitlement queues (weight 0, empty subtree, or demand only on
// closed resources) have no over-quota claim and are skipped as SI/EF
// subjects; they still count in every denominator and are still
// checked for floors. rel ≤ 0 selects 1e-9.
func AuditTree(t *Tree, a *Alloc, rel float64) Report {
	if rel <= 0 {
		rel = 1e-9
	}
	rep := Report{Floors: true, SI: true, EF: true, MinSIMargin: math.NaN()}
	t.auditNode(t.root, t.capacity, a, rel, &rep)
	return rep
}

func (t *Tree) auditNode(n *node, share []float64, a *Alloc, rel float64, rep *Report) {
	if len(n.children) == 0 {
		return
	}
	nRes := len(t.capacity)
	k := len(n.children)

	// Reconstruct the phase-2 pool: effective quotas (zero-demand
	// children donate their floor) and what is left over.
	agg := make([][]float64, k)  // clamped subtree aggregates
	effQ := make([][]float64, k) // q̃
	over := make([]float64, nRes)
	for i, c := range n.children {
		agg[i] = make([]float64, nRes)
		effQ[i] = make([]float64, nRes)
		for r := 0; r < nRes; r++ {
			v := c.sums.Value(r)
			if v < 0 {
				v = 0
			}
			agg[i][r] = v
			if v > 0 {
				effQ[i][r] = c.quota[r]
			}
		}
	}
	for r := 0; r < nRes; r++ {
		o := share[r]
		for i := range n.children {
			o -= effQ[i][r]
		}
		if o < 0 {
			o = 0
		}
		over[r] = o
	}

	zs := make([][]float64, k) // over-quota bundles
	ent := make([]float64, k)  // entitlements w · open demand mass
	sumEnt := 0.0
	for i, c := range n.children {
		zs[i] = make([]float64, nRes)
		mass := 0.0
		for r := 0; r < nRes; r++ {
			z := a.byName[c.name].Share[r] - effQ[i][r]
			if z < 0 {
				z = 0
			}
			zs[i][r] = z
			if over[r] > 0 {
				mass += agg[i][r]
			}
		}
		ent[i] = c.weight * mass
		sumEnt += ent[i]
	}

	logTol := -math.Log1p(-rel) // ≈ rel; normalized margin ≥ −logTol passes

	for i, c := range n.children {
		qa := a.byName[c.name]
		// Floors.
		for r := 0; r < nRes; r++ {
			if agg[i][r] > 0 && qa.Share[r] < c.quota[r]*(1-rel) {
				rep.Floors = false
				rep.Findings = append(rep.Findings, fmt.Sprintf(
					"hier-floors: queue %s resource %d: share %v below quota %v with positive demand",
					c.name, r, qa.Share[r], c.quota[r]))
			}
		}
		if ent[i] <= 0 || sumEnt <= 0 {
			continue
		}
		// mass normalizes log-margins to per-unit-demand scale.
		mass := ent[i] / c.weight

		// SI against the entitlement split of the pool.
		margin := 0.0
		for r := 0; r < nRes; r++ {
			if agg[i][r] <= 0 || over[r] <= 0 {
				continue
			}
			b := ent[i] / sumEnt * over[r]
			if b <= 0 {
				continue
			}
			if zs[i][r] <= 0 {
				margin = math.Inf(-1)
				break
			}
			margin += agg[i][r] * (math.Log(zs[i][r]) - math.Log(b))
		}
		norm := margin / mass
		if math.IsNaN(rep.MinSIMargin) || norm < rep.MinSIMargin {
			rep.MinSIMargin = norm
		}
		if margin < -mass*logTol {
			rep.SI = false
			rep.Findings = append(rep.Findings, fmt.Sprintf(
				"hier-si: queue %s prefers the entitlement split (normalized log-margin %v)",
				c.name, norm))
		}

		// EF against every sibling's entitlement-scaled bundle.
		for j, d := range n.children {
			if j == i || ent[j] <= 0 {
				continue
			}
			scale := ent[i] / ent[j]
			envy := 0.0
			for r := 0; r < nRes; r++ {
				if agg[i][r] <= 0 || over[r] <= 0 {
					continue
				}
				other := scale * zs[j][r]
				if other <= 0 {
					// The sibling holds none of a resource c wants:
					// the scaled bundle is worthless to c there.
					envy = math.Inf(-1)
					break
				}
				if zs[i][r] <= 0 {
					envy = math.Inf(1)
					break
				}
				envy += agg[i][r] * (math.Log(other) - math.Log(zs[i][r]))
			}
			if envy > mass*logTol {
				rep.EF = false
				rep.Findings = append(rep.Findings, fmt.Sprintf(
					"hier-ef: queue %s envies sibling %s at entitlement ratio %v (normalized log-margin %v)",
					c.name, d.name, scale, envy/mass))
			}
		}
	}

	for _, c := range n.children {
		t.auditNode(c, a.byName[c.name].Share, a, rel, rep)
	}
}
