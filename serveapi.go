package edattack

import (
	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/serve"
)

// Re-exported serving types: the attack-as-a-service daemon behind the
// edserve command (see internal/serve). The server owns a bounded admission
// queue, a worker pool, and per-topology warm state (dispatch model,
// attacker knowledge, simplex root bases, sweep precomputation) that makes
// repeat requests against the same wires cheap without changing any answer.
type (
	// ServeConfig tunes a Server; the zero value serves with defaults.
	ServeConfig = serve.Config
	// Server is the daemon: create with NewServer, expose via Handler,
	// stop with Close.
	Server = serve.Server
	// AttackWarmCache holds simplex root bases keyed by bilevel
	// subproblem, seeding repeat attacks on a topology; results are
	// certified bit-identical to cold runs. Wire one through
	// AttackOptions.Warm.
	AttackWarmCache = core.WarmCache
)

// NewServer builds a serving daemon and starts its worker goroutines.
func NewServer(cfg ServeConfig) *Server {
	return serve.New(cfg)
}

// NewAttackWarmCache builds an empty warm-basis cache for cross-run attack
// seeding.
func NewAttackWarmCache() *AttackWarmCache {
	return core.NewWarmCache()
}
