//go:build race

package proof

// The race detector drops a random share of what is put into a sync.Pool,
// so an allocation count that relies on pool reuse does not hold under it.
func init() { raceEnabled = true }
