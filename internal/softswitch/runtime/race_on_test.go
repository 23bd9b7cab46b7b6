//go:build race

package runtime_test

// raceEnabled reports whether the race detector is instrumenting this
// build; allocation-exactness tests skip under it (the instrumentation
// itself allocates).
const raceEnabled = true
