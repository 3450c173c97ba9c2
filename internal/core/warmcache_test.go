package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/telemetry"
)

// TestWarmCacheBitIdentical pins the cross-run warm-basis cache's soundness
// contract: a run seeded from a prior run's root bases returns the exact
// attack a cacheless run does, and repeat runs actually hit the cache.
func TestWarmCacheBitIdentical(t *testing.T) {
	ref, err := core.FindOptimalAttack(knowledgeFor(t, cases.Case9), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	warm := core.NewWarmCache()
	warm.Metrics = reg
	k := knowledgeFor(t, cases.Case9)
	first, err := core.FindOptimalAttack(k, core.Options{Workers: 1, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	sameAttack(t, "cold run with empty cache", ref, first)
	if warm.Len() == 0 {
		t.Fatal("warm cache empty after a completed run")
	}
	stores := reg.Counter("core_warmcache_stores_total").Value()
	if stores == 0 {
		t.Fatal("no stores counted after a completed run")
	}

	second, err := core.FindOptimalAttack(k, core.Options{Workers: 1, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	sameAttack(t, "repeat run with hot cache", ref, second)
	if hits := reg.Counter("core_warmcache_hits_total").Value(); hits == 0 {
		t.Fatal("repeat run on an identical grid never hit the warm cache")
	}
}

// TestWarmCacheIgnoredUnderNoWarmStart: a cold-LP run (WithColdLP) must
// keep the cache untouched — no stores, no lookups.
func TestWarmCacheIgnoredUnderNoWarmStart(t *testing.T) {
	reg := telemetry.NewRegistry()
	warm := core.NewWarmCache()
	warm.Metrics = reg
	k := knowledgeFor(t, cases.Case9)
	if _, err := core.FindOptimalAttack(k, core.WithColdLP(core.Options{Workers: 1, Warm: warm})); err != nil {
		t.Fatal(err)
	}
	if warm.Len() != 0 {
		t.Fatalf("NoWarmStart run stored %d bases", warm.Len())
	}
	total := reg.Counter("core_warmcache_hits_total").Value() +
		reg.Counter("core_warmcache_misses_total").Value() +
		reg.Counter("core_warmcache_stores_total").Value()
	if total != 0 {
		t.Fatalf("NoWarmStart run touched the warm cache %d times", total)
	}
}

// TestContextCancelAborts: a context canceled before the run starts must
// surface as a wrapped context.Canceled, never as an attack.
func TestContextCancelAborts(t *testing.T) {
	k := knowledgeFor(t, cases.Case9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	att, err := core.FindOptimalAttack(k, core.Options{Workers: 1, Ctx: ctx})
	if att != nil {
		t.Fatal("canceled run returned an attack")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}

// TestContextDeadlineAborts: an already-expired deadline must surface as
// context.DeadlineExceeded quickly, and a generous deadline must not change
// the result.
func TestContextDeadlineAborts(t *testing.T) {
	k := knowledgeFor(t, cases.Case9)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, err := core.FindOptimalAttack(k, core.Options{Workers: 1, Ctx: ctx}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}

	ref, err := core.FindOptimalAttack(k, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	att, err := core.FindOptimalAttack(k, core.Options{Workers: 1, Ctx: ctx2})
	if err != nil {
		t.Fatal(err)
	}
	sameAttack(t, "run under a generous deadline", ref, att)
}
