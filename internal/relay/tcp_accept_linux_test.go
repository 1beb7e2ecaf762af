//go:build linux

package relay

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// fdExhaustionChild marks the child process TestTCPServerSurvivesFDExhaustion
// runs itself in, so lowering its descriptor limit cannot starve the other
// tests of the binary.
const fdExhaustionChild = "RELAY_FD_EXHAUSTION_CHILD"

// TestTCPServerSurvivesFDExhaustion: a relay whose process runs out of file
// descriptors fails its Accepts (EMFILE) but keeps its listener, and
// answers a Ping within 2 s once the descriptors are released.
func TestTCPServerSurvivesFDExhaustion(t *testing.T) {
	if os.Getenv(fdExhaustionChild) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTCPServerSurvivesFDExhaustion$", "-test.v")
		cmd.Env = append(os.Environ(), fdExhaustionChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "--- PASS") {
			t.Fatalf("child: %v\n%s", err, out)
		}
		return
	}

	server, err := NewTCPServer(New("net", NewStaticRegistry(), &TCPTransport{}), "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewTCPServer: %v", err)
	}
	defer server.Close()
	probe := New("probe", NewStaticRegistry(), &TCPTransport{})

	open, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("list descriptors: %v", err)
	}
	var limit syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &limit); err != nil {
		t.Fatalf("Getrlimit: %v", err)
	}
	lowered := limit
	lowered.Cur = uint64(len(open) + 32)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lowered); err != nil {
		t.Fatalf("Setrlimit: %v", err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_NOFILE, &limit)

	// Dial until the table is full. Each accepted connection holds a
	// server descriptor too, so whether the last one was accepted depends
	// on who took the last descriptor; the reserve, freed for one more
	// dial, leaves a connection queued that Accept has no descriptor for.
	reserve, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatalf("open reserve: %v", err)
	}
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for {
		c, err := net.Dial("tcp", server.Addr())
		if errors.Is(err, syscall.EMFILE) {
			break
		}
		if err != nil {
			t.Fatalf("dial %d: %v", len(conns), err)
		}
		conns = append(conns, c)
	}
	reserve.Close()
	c, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatalf("dial into the last descriptor: %v", err)
	}
	conns = append(conns, c)
	time.Sleep(200 * time.Millisecond) // Accept fails with EMFILE meanwhile

	for _, c := range conns {
		c.Close()
	}
	conns = nil
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := probe.Ping(ctx, server.Addr()); err != nil {
		t.Fatalf("relay unreachable after descriptors were released: %v", err)
	}
}
