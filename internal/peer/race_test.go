//go:build race

package peer

// The race detector adds allocations of its own, so an allocation count
// does not hold under it.
func init() { raceEnabled = true }
