// Package sweep is the batched scenario-evaluation engine behind
// Monte-Carlo attack-success studies: thousands of (demand draw, rating
// draw, attack vector) operating points, each base-case checked and N−1
// screened, at a throughput one full power-flow per scenario could never
// reach.
//
// The engine is PTDF-compact. Per topology it precomputes the shift-factor
// matrix once (flows = PTDF·injections, eliminating the per-scenario B·θ
// factorization) and derives the LODF from the same PTDF. Scenarios are
// packed into scenario-per-column injection batches so a whole batch's
// flows fall out of one blocked matrix–matrix product, violations and
// post-contingency screening vectorize over the batch, and batches fan out
// over the internal/par worker pool.
//
// Determinism is part of the contract: after the repository's 1e-6 MVA
// flow quantization, every outcome is bit-identical to the per-scenario
// dcflow.Solve + contingency.Screen oracle for any batch size and worker
// count. The slow path stays available (Options.Sequential) as the
// differential-testing reference.
package sweep

import (
	"fmt"
	"math"

	"github.com/edsec/edattack/internal/contingency"
	"github.com/edsec/edattack/internal/dcflow"
	"github.com/edsec/edattack/internal/grid"
	"github.com/edsec/edattack/internal/mat"
	"github.com/edsec/edattack/internal/sparse"
)

// FlowQuantum is the MVA grid flows are rounded onto before any limit
// comparison — the same micro-MVA resolution the attack generator uses for
// reported ratings. Shift-factor flows and B·θ flows agree to far below
// this quantum, so quantized outcomes are engine-independent.
const FlowQuantum = 1e-6

// quantizeFlow rounds a MW flow onto the FlowQuantum grid.
func quantizeFlow(v float64) float64 {
	return math.Round(v/FlowQuantum) * FlowQuantum
}

// sparseDensityCutoff routes the flow product: when the PTDF (zeros
// dropped) is at most this dense, the CSR·dense-batch kernel wins; above
// it the blocked dense GEMM does. Both produce bit-identical flows, so the
// cutover is a pure performance knob (mirroring the LP engine selection).
const sparseDensityCutoff = 0.5

// Precomp is the per-topology shift-factor bundle: everything scenario
// evaluation needs that does not depend on the operating point. Build one
// per network and share it freely — all fields are immutable after
// Precompute.
type Precomp struct {
	Net *grid.Network
	// PTDF is the lines×buses shift-factor matrix.
	PTDF *mat.Matrix
	// PTDFSparse is the compressed form of PTDF, non-nil when its density
	// (exact zeros dropped) is at most sparseDensityCutoff; the engine
	// then routes flow products through the CSR·dense kernel.
	PTDFSparse *sparse.CSR
	// LODF holds the line-outage distribution factors derived from PTDF.
	LODF *contingency.LODF
	// GenBus maps generator index → dense bus index.
	GenBus []int
	// Islanding counts outages skipped because they split the network —
	// constant across scenarios of one topology.
	Islanding int

	// lodfT is the LODF transposed into outage-major layout (row k holds
	// LODF(·,k)): the batched screen walks outages outermost, and the
	// row-major original would stride a full column per factor there.
	lodfT []float64
	// islanding[k] caches LODF.Islanding(k) as a flat slice for the
	// screen's inner loops.
	islanding []bool
}

// Precompute builds the shift-factor bundle for a validated network. The
// PTDF is factored exactly once; the LODF reuses it via
// contingency.ComputeLODFFromPTDF.
func Precompute(net *grid.Network) (*Precomp, error) {
	ptdf, err := dcflow.PTDF(net)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return PrecomputeFromPTDF(net, ptdf)
}

// PrecomputeFromPTDF is Precompute for callers that already hold the
// network's PTDF (for example from a dispatch model).
func PrecomputeFromPTDF(net *grid.Network, ptdf *mat.Matrix) (*Precomp, error) {
	lodf, err := contingency.ComputeLODFFromPTDF(net, ptdf)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	pc := &Precomp{Net: net, PTDF: ptdf, LODF: lodf}
	pc.GenBus = make([]int, len(net.Gens))
	for gi := range net.Gens {
		bi, err := net.BusIndex(net.Gens[gi].Bus)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		pc.GenBus[gi] = bi
	}
	nl := len(net.Lines)
	pc.islanding = make([]bool, nl)
	for k := range net.Lines {
		if lodf.Islanding(k) {
			pc.islanding[k] = true
			pc.Islanding++
		}
	}
	pc.lodfT = make([]float64, nl*nl)
	for l := 0; l < nl; l++ {
		row := lodf.FactorRow(l)
		for k, c := range row {
			pc.lodfT[k*nl+l] = c
		}
	}
	b := sparse.NewBuilder(ptdf.Rows(), ptdf.Cols())
	for i := 0; i < ptdf.Rows(); i++ {
		row := ptdf.RawRow(i)
		for j, v := range row {
			b.Add(i, j, v) // Add drops exact zeros
		}
	}
	if csr := b.CSR(); csr.Density() <= sparseDensityCutoff {
		pc.PTDFSparse = csr
	}
	return pc, nil
}

// injections fills dst (len buses) with the nodal injection vector of one
// scenario: generation minus demand, in MW. Both the batched engine and
// the sequential oracle assemble injections through this one function, so
// the two paths hand bit-identical right-hand sides to their respective
// flow solvers.
func (pc *Precomp) injections(s *Scenario, dst []float64) {
	for i := range dst {
		dst[i] = -s.Demand[i]
	}
	for gi, bi := range pc.GenBus {
		dst[bi] += s.Dispatch[gi]
	}
}
