package serve

import "testing"

// setSolveHook installs fn as the solve-phase hook until the test ends.
// Call it before starting the test server, so the hook is cleared only
// after the server's workers have stopped.
func setSolveHook(t testing.TB, fn func(kind jobKind)) {
	testHookSolve = fn
	t.Cleanup(func() { testHookSolve = nil })
}
