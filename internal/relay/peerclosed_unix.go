//go:build unix

package relay

import "syscall"

// peerHungUp asks the kernel, without blocking and without consuming
// anything, whether the peer of the socket fd has already closed or reset
// the connection. The connection's reader goroutine learns the same thing,
// but only once it is scheduled; a Send about to write on an idle
// connection needs the answer now, because a request written after the
// peer hung up was provably never delivered (so the Send may redial, and a
// caller may fail over), while one written before is ambiguous.
func peerHungUp(fd uintptr) bool {
	var b [1]byte
	n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	switch err {
	case nil:
		return n == 0 // end of stream; n > 0 is a reply waiting for the reader
	case syscall.EAGAIN, syscall.EINTR:
		return false // open, nothing to read
	default:
		return true // reset, or otherwise unusable
	}
}
