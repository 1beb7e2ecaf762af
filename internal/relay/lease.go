package relay

import (
	"sync"
	"time"
)

// LeaseRegistrar is the lease-based membership contract of discovery
// registries: a relay announces its address under a TTL and renews it on a
// heartbeat; an entry whose lease lapses stops being resolved, so a relay
// that died without deregistering ages out of discovery instead of being
// tried forever. A zero TTL grants a permanent entry (operator-managed
// registries). Registration is idempotent per (network, address):
// re-announcing refreshes the lease instead of appending a duplicate.
type LeaseRegistrar interface {
	RegisterLease(networkID, addr string, ttl time.Duration) error
	Deregister(networkID, addr string) error
}

// leaseEntry is one registered address with its lease expiry; a zero expiry
// means the entry is permanent.
type leaseEntry struct {
	addr    string
	expires time.Time
}

// live reports whether the entry's lease is still valid at now.
func (e leaseEntry) live(now time.Time) bool {
	return e.expires.IsZero() || e.expires.After(now)
}

// upsertLease registers addr in a lease list, deduplicating by address:
// an existing entry has its expiry refreshed in place (keeping its
// preference position), otherwise the entry is appended.
func upsertLease(entries []leaseEntry, addr string, expires time.Time) []leaseEntry {
	for i := range entries {
		if entries[i].addr == addr {
			entries[i].expires = expires
			return entries
		}
	}
	return append(entries, leaseEntry{addr: addr, expires: expires})
}

// removeLease deletes addr from a lease list, preserving order.
func removeLease(entries []leaseEntry, addr string) ([]leaseEntry, bool) {
	for i := range entries {
		if entries[i].addr == addr {
			return append(entries[:i], entries[i+1:]...), true
		}
	}
	return entries, false
}

// liveAddrs filters a lease list down to the addresses whose lease is still
// valid at now, in registration order.
func liveAddrs(entries []leaseEntry, now time.Time) []string {
	addrs := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.live(now) {
			addrs = append(addrs, e.addr)
		}
	}
	return addrs
}

// Announce registers addr for networkID under a TTL lease and keeps the
// lease alive by re-announcing on a heartbeat (a third of the TTL, so two
// consecutive renewals can fail before the lease lapses). The returned stop
// function halts the heartbeat and deregisters the address — the clean
// shutdown path for a relay daemon. Renewal errors are retried at the next
// tick and reported through onRenewError (nil to ignore); a registry that
// stays unwritable lets the lease lapse, which is the failure semantics
// leases exist to provide — but the daemon gets to log why it vanished
// from discovery.
func Announce(reg LeaseRegistrar, networkID, addr string, ttl time.Duration, onRenewError func(error)) (stop func(), err error) {
	if ttl <= 0 {
		// Permanent registration: nothing to renew, deregister on stop.
		if err := reg.RegisterLease(networkID, addr, 0); err != nil {
			return nil, err
		}
		return func() { _ = reg.Deregister(networkID, addr) }, nil
	}
	if err := reg.RegisterLease(networkID, addr, ttl); err != nil {
		return nil, err
	}
	heartbeat := ttl / 3
	if heartbeat < time.Millisecond {
		heartbeat = time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(heartbeat)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if err := reg.RegisterLease(networkID, addr, ttl); err != nil && onRenewError != nil {
					onRenewError(err) // retried at the next tick regardless
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			_ = reg.Deregister(networkID, addr)
		})
	}, nil
}
