//go:build !racecheck

package storage

// debugChecks reports whether the racecheck assertions are compiled in.
const debugChecks = false

// assertPinned is the no-op release build of the stale-frame assertion. See
// pincheck_on.go (built with -tags racecheck) for the checked variant.
func assertPinned(*Frame) {}
