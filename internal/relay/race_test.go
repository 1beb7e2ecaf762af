//go:build race

package relay

// The race detector drops a random share of what is put into a sync.Pool,
// so a byte count that relies on pool reuse does not hold under it.
func init() { raceEnabled = true }
