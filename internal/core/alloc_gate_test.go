package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/edsec/edattack/internal/core"
	"github.com/edsec/edattack/internal/gatetest"
	"github.com/edsec/edattack/internal/grid/cases"
	"github.com/edsec/edattack/internal/lp"
)

// serveBaselinePath is the serving-layer baseline at the repository root,
// whose allocation figures the alloc gate pins.
const serveBaselinePath = "../../BENCH_serve.json"

// mallocsNow reads the cumulative heap-object allocation counter.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// attackAllocRun runs one attack on a fresh knowledge bundle and returns the
// attack plus the Mallocs spent inside FindOptimalAttack alone (knowledge
// construction is excluded — the serving layer builds it once per topology).
func attackAllocRun(tb testing.TB, caseName string, o core.Options) (*core.Attack, uint64) {
	tb.Helper()
	k := caseKnowledge(tb, caseName)
	before := mallocsNow()
	att, err := core.FindOptimalAttack(k, o)
	after := mallocsNow()
	if err != nil {
		tb.Fatalf("attack on %s: %v", caseName, err)
	}
	return att, after - before
}

// perNodeAllocs measures the marginal allocation cost of one extra
// branch-and-bound node: two otherwise-identical budgeted runs (MaxNodes 1
// vs maxNodes), ΔMallocs over Δnodes. With the dive off the delta is pure
// branch-and-bound, and Workers 1 keeps it deterministic. Mallocs is
// process-wide, so another goroutine allocating during the small run can
// make the difference negative; it is taken signed, and callers reject a
// figure that is not positive.
func perNodeAllocs(tb testing.TB, caseName string, maxNodes int) float64 {
	tb.Helper()
	opts := func(nodes int) core.Options {
		return core.WithoutDive(core.Options{MaxNodes: nodes, Workers: 1})
	}
	small, smallAllocs := attackAllocRun(tb, caseName, opts(1))
	big, bigAllocs := attackAllocRun(tb, caseName, opts(maxNodes))
	dn := big.Nodes - small.Nodes
	if dn <= 0 {
		tb.Fatalf("%s: node budget %d explored %d nodes vs %d at budget 1 — no delta to measure",
			caseName, maxNodes, big.Nodes, small.Nodes)
	}
	return float64(int64(bigAllocs)-int64(smallAllocs)) / float64(dn)
}

// measureEvaluateAllocs is the warm serving hot path's allocation rate:
// heap objects per EvaluateAttack against a workspace-carrying model, the
// exact shape edserve runs per evaluate request (modulo HTTP).
func measureEvaluateAllocs(tb testing.TB, caseName string, solves int) float64 {
	tb.Helper()
	k := caseKnowledge(tb, caseName)
	k.Model.Workspace = lp.NewWorkspace()
	att := attackDLR(tb, caseName, 1.05)
	// Warm-up: grow the workspace and the dispatch warm-start state.
	for i := 0; i < 3; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			tb.Fatal(err)
		}
	}
	before := mallocsNow()
	for i := 0; i < solves; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			tb.Fatal(err)
		}
	}
	return float64(mallocsNow()-before) / float64(solves)
}

// attackDLR builds the in-band +5% manipulation the evaluate benchmarks use.
func attackDLR(tb testing.TB, caseName string, scale float64) map[int]float64 {
	tb.Helper()
	net, err := cases.Load(caseName)
	if err != nil {
		tb.Fatal(err)
	}
	dlr := map[int]float64{}
	for _, li := range net.DLRLines() {
		dlr[li] = net.Lines[li].RateMVA * scale
	}
	return dlr
}

// BenchmarkWarmEvaluateAllocs is the -benchmem smoke the CI allocation job
// runs: the warm workspace-backed evaluate solve — the serving layer's
// per-request hot path — reporting wall time and allocs/op.
func BenchmarkWarmEvaluateAllocs(b *testing.B) {
	k := caseKnowledge(b, "case118")
	k.Model.Workspace = lp.NewWorkspace()
	att := attackDLR(b, "case118", 1.05)
	for i := 0; i < 3; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.EvaluateAttack(att); err != nil {
			b.Fatal(err)
		}
	}
}

// identityChildArg is the positional argument that turns
// TestWorkspaceIdentityChild on in the fresh child process the identity gate
// starts; a plain `go test` run never passes it.
const identityChildArg = "workspace-identity-child"

// identityBudget is the budgeted case118 attack the serving baselines
// record.
var identityBudget = core.Options{MaxNodes: 40, RelGap: 1e-3, Workers: 1}

// identityRecords runs the identity gate's attacks — case9/30/57 at one and
// four workers, then (outside -short) the budgeted case118 attack — and
// renders each as one exact line: gain and every manipulated rating in hex
// float, target, direction, and, for sequential runs, node, round, and
// pivot counts.
func identityRecords(tb testing.TB) []string {
	tb.Helper()
	var out []string
	run := func(label, name string, o core.Options) {
		att, err := core.FindOptimalAttack(caseKnowledge(tb, name), o)
		if err != nil {
			tb.Fatalf("%s: %v", label, err)
		}
		out = append(out, identityRecord(label, att, o.Workers == 1))
	}
	for _, name := range []string{"case9", "case30", "case57"} {
		for _, workers := range []int{1, 4} {
			run(fmt.Sprintf("%s workers=%d", name, workers), name, core.Options{Workers: workers})
		}
	}
	if !testing.Short() {
		run("case118 budgeted", "case118", identityBudget)
	}
	return out
}

func identityRecord(label string, a *core.Attack, work bool) string {
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "%s: gain=%s target=%d dir=%+d", label, hex(a.GainPct), a.TargetLine, a.Direction)
	lines := make([]int, 0, len(a.DLR))
	for li := range a.DLR {
		lines = append(lines, li)
	}
	sort.Ints(lines)
	for _, li := range lines {
		fmt.Fprintf(&b, " %d=%s", li, hex(a.DLR[li]))
	}
	if work {
		fmt.Fprintf(&b, " nodes=%d rounds=%d", a.Nodes, a.Rounds)
		if a.Stats != nil {
			fmt.Fprintf(&b, " pivots=%d", a.Stats.SimplexIterations)
		}
	}
	return b.String()
}

// TestWorkspaceIdentityChild prints the identity records from a fresh
// process for TestWorkspaceIdentityGate; it skips in any other run.
func TestWorkspaceIdentityChild(t *testing.T) {
	if flag.Arg(0) != identityChildArg {
		t.Skip("runs only as TestWorkspaceIdentityGate's child process")
	}
	for _, r := range identityRecords(t) {
		fmt.Println("IDENTITY " + r)
	}
}

// TestWorkspaceIdentityGate pins the single-owner workspace contract: a
// workspace only moves where solver arrays live, so an attack's answer and
// work are independent of what the process-wide pool handed out. It dirties
// the pool with a budgeted case118 attack over four workers (case57 in
// -short mode) — without the dive, which would only add minutes of the same
// dispatch solves the recorded attacks run anyway — then requires every
// identity record, including the budgeted case118 attack's node and round
// counts, to match bit for bit the records a fresh child process computes.
// The child runs concurrently, so the gate costs about one pass of the
// records in wall time.
func TestWorkspaceIdentityGate(t *testing.T) {
	if flag.Arg(0) == identityChildArg {
		t.Skip("parent-only gate")
	}
	var childOut, childErr strings.Builder
	cmd := exec.Command(os.Args[0], "-test.run=^TestWorkspaceIdentityChild$", "-test.count=1",
		fmt.Sprintf("-test.short=%v", testing.Short()), identityChildArg)
	cmd.Stdout, cmd.Stderr = &childOut, &childErr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting the fresh child process: %v", err)
	}
	waited := false
	defer func() {
		if !waited {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	dirty := "case118"
	if testing.Short() {
		dirty = "case57"
	}
	if _, err := core.FindOptimalAttack(caseKnowledge(t, dirty),
		core.WithoutDive(core.Options{MaxNodes: 40, Workers: 4})); err != nil {
		t.Fatalf("dirtying %s attack: %v", dirty, err)
	}
	got := identityRecords(t)

	waited = true
	if err := cmd.Wait(); err != nil {
		t.Fatalf("fresh child process: %v\n%s%s", err, childOut.String(), childErr.String())
	}
	var want []string
	for _, line := range strings.Split(childOut.String(), "\n") {
		if r, ok := strings.CutPrefix(line, "IDENTITY "); ok {
			want = append(want, r)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("fresh child printed %d records, this process computed %d:\n%s", len(want), len(got), childOut.String())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("after a dirtied pool:\n  got  %s\n  want %s (fresh process)", got[i], want[i])
		}
	}
}

// TestAllocGate is the allocation-regression gate. It pins the live
// per-node branch-and-bound allocation cost (case30, fast) and the recorded
// case118 figure in BENCH_serve.json under absolute ceilings, and the
// workspace-backed evaluate path under a live allocation ceiling.
func TestAllocGate(t *testing.T) {
	perNode := perNodeAllocs(t, "case30", 400)
	if perNode <= 0 {
		t.Fatalf("per-node allocation measure %.1f is not positive — measurement broke", perNode)
	}
	t.Logf("case30 per-node allocs: %.1f", perNode)
	if perNode > 35 {
		t.Errorf("branch-and-bound allocates %.1f objects per node on case30, want ≤35", perNode)
	}

	// A warm evaluate measures 6 objects: the rating vector, the
	// qp.Solution and its array, the dispatch Result and its array (no
	// line binds), and the Evaluation. The ceiling leaves 2 objects of
	// headroom.
	evalAllocs := measureEvaluateAllocs(t, "case118", 32)
	t.Logf("case118 warm evaluate: %.1f allocs/solve", evalAllocs)
	if evalAllocs > 8 {
		t.Errorf("warm workspace-backed evaluate allocates %.1f objects/solve, want ≤8", evalAllocs)
	}

	base, err := gatetest.LoadServeBaseline(serveBaselinePath)
	if err != nil {
		t.Fatalf("BENCH_serve.json: %v — record it with make bench-serve-baseline", err)
	}
	rec, ok := base["case118"]
	if !ok {
		t.Fatal("BENCH_serve.json has no case118 record")
	}
	if rec.AllocsPerNode <= 0 {
		t.Fatalf("BENCH_serve.json records no per-node allocation figure — rerun make bench-serve-baseline")
	}
	if rec.AllocsPerNode > 1262 {
		t.Errorf("recorded case118 per-node allocations %.1f exceed the 1262 ceiling — rerun make bench-serve-baseline",
			rec.AllocsPerNode)
	}
	if rec.AttackRPS <= 0 {
		t.Error("BENCH_serve.json records no concurrent attack throughput — rerun make bench-serve-baseline")
	}
}

// TestRecordServeBaseline records the serving-layer latency baseline into
// BENCH_serve.json. Gated behind BENCH_SERVE=1 because it rewrites a
// checked-in artifact:
//
//	BENCH_SERVE=1 go test -run TestRecordServeBaseline ./internal/core
func TestRecordServeBaseline(t *testing.T) {
	if os.Getenv("BENCH_SERVE") == "" {
		t.Skip("set BENCH_SERVE=1 to (re)record BENCH_serve.json")
	}
	var records []gatetest.ServeRecord
	for _, name := range []string{"case118"} {
		m := gatetest.MeasureServe(t, name, 5, 4, 2)
		perNode := perNodeAllocs(t, name, 40)
		if perNode <= 0 {
			t.Fatalf("%s: per-node allocation measure %.1f is not positive — the process allocated elsewhere during the runs; BENCH_serve.json not written",
				name, perNode)
		}
		records = append(records, gatetest.ServeRecord{
			Case:            name,
			ColdAttackMS:    float64(m.Cold.Microseconds()) / 1000,
			WarmAttackP50MS: float64(m.WarmP50.Microseconds()) / 1000,
			WarmSpeedup:     m.Cold.Seconds() / m.WarmP50.Seconds(),
			WarmHitRate:     m.WarmHit,
			AttackRPS:       m.AttackRPS,
			AllocsPerSolve:  measureEvaluateAllocs(t, name, 32),
			AllocsPerNode:   perNode,
			HeapLiveBytes:   m.HeapLive,
		})
	}
	out, err := json.MarshalIndent(map[string]any{
		"note":    "attack-as-a-service latency and allocation baseline (budgeted case118 attack cold vs warm-cache repeats, p50 of 5 repeats, a 4×2 closed-loop concurrent attack burst, allocs per warm workspace-backed evaluate, and marginal allocs per branch-and-bound node); wall numbers machine-dependent, allocation counts are not; evaluate latency is the bench's serve-evaluate workload; regenerate with BENCH_SERVE=1 go test -run TestRecordServeBaseline ./internal/core",
		"cpus":    runtime.GOMAXPROCS(0),
		"records": records,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(serveBaselinePath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println(string(out))
}
