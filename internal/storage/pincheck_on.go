//go:build racecheck

package storage

import "fmt"

// debugChecks reports whether the racecheck assertions are compiled in.
const debugChecks = true

// assertPinned panics when a caller touches a frame it no longer holds. An
// eviction hands an unpinned frame's buffer to the next page the pool
// installs, so a frame used after Release would silently read or dirty
// another page's bytes in a release build.
func assertPinned(f *Frame) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("storage: use of unpinned frame (page %d) after Release", f.id))
	}
}
