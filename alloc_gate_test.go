package edattack_test

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	edattack "github.com/edsec/edattack"
	"github.com/edsec/edattack/internal/lp"
)

// mallocsNow reads the cumulative heap-object allocation counter.
func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// attackAllocRun runs one attack on a fresh knowledge bundle and returns the
// attack plus the Mallocs spent inside FindOptimalAttack alone (knowledge
// construction is excluded — the serving layer builds it once per topology).
func attackAllocRun(tb testing.TB, caseName string, o edattack.AttackOptions) (*edattack.Attack, uint64) {
	tb.Helper()
	k := knowledgeCase(tb, caseName)
	before := mallocsNow()
	att, err := edattack.FindOptimalAttack(k, o)
	after := mallocsNow()
	if err != nil {
		tb.Fatalf("attack on %s: %v", caseName, err)
	}
	return att, after - before
}

// perNodeAllocs measures the marginal allocation cost of one extra
// branch-and-bound node: two otherwise-identical budgeted runs (MaxNodes 1
// vs maxNodes), ΔMallocs over Δnodes. NoDive keeps the delta pure
// branch-and-bound, Workers 1 keeps it deterministic, ForceSparse pins the
// sparse engine.
func perNodeAllocs(tb testing.TB, caseName string, maxNodes int) float64 {
	tb.Helper()
	opts := func(nodes int) edattack.AttackOptions {
		return edattack.AttackOptions{MaxNodes: nodes, Workers: 1, NoDive: true, ForceSparse: true}
	}
	small, smallAllocs := attackAllocRun(tb, caseName, opts(1))
	big, bigAllocs := attackAllocRun(tb, caseName, opts(maxNodes))
	dn := big.Nodes - small.Nodes
	if dn <= 0 {
		tb.Fatalf("%s: node budget %d explored %d nodes vs %d at budget 1 — no delta to measure",
			caseName, maxNodes, big.Nodes, small.Nodes)
	}
	return float64(bigAllocs-smallAllocs) / float64(dn)
}

// measureEvaluateAllocs is the warm serving hot path's allocation rate:
// heap objects per EvaluateAttack against a workspace-carrying model, the
// exact shape edserve runs per evaluate request (modulo HTTP).
func measureEvaluateAllocs(tb testing.TB, caseName string, solves int) float64 {
	tb.Helper()
	k := knowledgeCase(tb, caseName)
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
	net, err := edattack.LoadCase(caseName)
	if err != nil {
		tb.Fatal(err)
	}
	dlr := map[int]float64{}
	for _, li := range net.DLRLines() {
		dlr[li] = net.Lines[li].RateMVA * scale
	}
	return dlr
}

// assertSameAttack compares two attacks bit for bit on everything the
// serving contract promises: gain, target, direction, and the full
// manipulated-rating vector.
func assertSameAttack(tb testing.TB, label string, got, want *edattack.Attack) {
	tb.Helper()
	if got.GainPct != want.GainPct || got.TargetLine != want.TargetLine || got.Direction != want.Direction {
		tb.Errorf("%s: gain %.17g target %d dir %+d, want %.17g %d %+d",
			label, got.GainPct, got.TargetLine, got.Direction,
			want.GainPct, want.TargetLine, want.Direction)
		return
	}
	if len(got.DLR) != len(want.DLR) {
		tb.Errorf("%s: DLR has %d lines, want %d", label, len(got.DLR), len(want.DLR))
		return
	}
	for li, v := range want.DLR {
		if got.DLR[li] != v {
			tb.Errorf("%s: DLR[%d] = %.17g, want %.17g", label, li, got.DLR[li], v)
		}
	}
}

// BenchmarkWarmEvaluateAllocs is the -benchmem smoke the CI allocation job
// runs: the warm workspace-backed evaluate solve — the serving layer's
// per-request hot path — reporting wall time and allocs/op.
func BenchmarkWarmEvaluateAllocs(b *testing.B) {
	k := knowledgeCase(b, "case118")
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
var identityBudget = edattack.AttackOptions{MaxNodes: 40, RelGap: 1e-3, Workers: 1}

// identityRecords runs the identity gate's attacks — case9/30/57 at one and
// four workers, then (outside -short) the budgeted case118 attack — and
// renders each as one exact line: gain and every manipulated rating in hex
// float, target, direction, and, for sequential runs, node, round, and
// pivot counts.
func identityRecords(tb testing.TB) []string {
	tb.Helper()
	var out []string
	run := func(label, name string, o edattack.AttackOptions) {
		att, err := edattack.FindOptimalAttack(knowledgeCase(tb, name), o)
		if err != nil {
			tb.Fatalf("%s: %v", label, err)
		}
		out = append(out, identityRecord(label, att, o.Workers == 1))
	}
	for _, name := range []string{"case9", "case30", "case57"} {
		for _, workers := range []int{1, 4} {
			run(fmt.Sprintf("%s workers=%d", name, workers), name, edattack.AttackOptions{Workers: workers})
		}
	}
	if !testing.Short() {
		run("case118 budgeted", "case118", identityBudget)
	}
	return out
}

func identityRecord(label string, a *edattack.Attack, work bool) string {
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
	if _, err := edattack.FindOptimalAttack(knowledgeCase(t, dirty),
		edattack.AttackOptions{MaxNodes: 40, Workers: 4, NoDive: true}); err != nil {
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

	base, err := loadServeBaseline()
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
