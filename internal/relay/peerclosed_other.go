//go:build !unix

package relay

// peerHungUp cannot peek at the socket on this platform. A Send then relies
// on the connection's reader alone to notice a peer that hung up, so one
// that races the reader fails as ambiguous instead of redialling.
func peerHungUp(uintptr) bool { return false }
