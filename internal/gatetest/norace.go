//go:build !race

package gatetest

// RaceEnabled reports whether the binary was built with the race detector,
// whose ~10-20× instrumentation slowdown makes wall-clock assertions
// meaningless.
const RaceEnabled = false
