package syscc

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/chaincode"
	"repro/internal/msp"
	"repro/internal/policy"
	"repro/internal/statedb"
)

// eccCall invokes one ECC function directly against a state store.
func eccCall(reg *chaincode.Registry, state *statedb.Store, fn string, args ...[]byte) ([]byte, error) {
	return chaincode.Evaluate(reg, state, chaincode.Invocation{
		TxID: "tx", Chaincode: ECCName, Function: fn, Args: args, Timestamp: time.Unix(0, 0),
	})
}

// eccOf returns the ECC instance deployed in reg.
func eccOf(t *testing.T, reg *chaincode.Registry) *ECC {
	t.Helper()
	cc, err := reg.Get(ECCName)
	if err != nil {
		t.Fatalf("Get ECC: %v", err)
	}
	return cc.(*ECC)
}

// putRule records rule directly in state, as a committed AddAccessRule
// would; deleteRule removes it.
func putRule(t *testing.T, state *statedb.Store, rule policy.AccessRule) {
	t.Helper()
	value, _ := rule.Marshal()
	key, err := ruleKey(rule)
	if err != nil {
		t.Fatalf("ruleKey: %v", err)
	}
	state.ApplyWrites([]statedb.Write{{Namespace: ECCName, Key: key, Value: value}}, statedb.Version{})
}

func deleteRule(t *testing.T, state *statedb.Store, rule policy.AccessRule) {
	t.Helper()
	key, err := ruleKey(rule)
	if err != nil {
		t.Fatalf("ruleKey: %v", err)
	}
	state.ApplyWrites([]statedb.Write{{Namespace: ECCName, Key: key, IsDelete: true}}, statedb.Version{})
}

// decide runs both access decisions the ECC makes for a remote-org client
// of remote-net calling probe.fn — CheckAccess and the full Authorize —
// and fails the test unless they agree. It returns whether access is
// permitted.
func decide(t *testing.T, reg *chaincode.Registry, state *statedb.Store, client *msp.Identity, fn string) bool {
	t.Helper()
	check, err := eccCall(reg, state, ECCCheckAccess, []byte("remote-net"), []byte("remote-org"), []byte("probe"), []byte(fn))
	if err != nil {
		t.Fatalf("CheckAccess %s: %v", fn, err)
	}
	_, err = eccCall(reg, state, ECCAuthorize, []byte("remote-net"), client.CertPEM(), []byte("probe"), []byte(fn))
	if err != nil && !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("Authorize %s: %v", fn, err)
	}
	if permitted := err == nil; permitted != (string(check) == "true") {
		t.Fatalf("%s: CheckAccess says %s but Authorize err = %v", fn, check, err)
	}
	return err == nil
}

// TestECCRuleMemoFollowsRuleEdits: the memoised rule set never outlives
// the rule values it was decoded from. Adding a rule permits on the very
// next call, removing it refuses on the next, re-adding it permits again,
// and replacing it by another rule refuses — each time through CheckAccess
// and Authorize alike.
func TestECCRuleMemoFollowsRuleEdits(t *testing.T) {
	reg, state, foreignCA := helperEnv(t)
	client, err := foreignCA.Issue("remote-client", msp.RoleClient)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	write := policy.AccessRule{Network: "remote-net", Org: "remote-org", Chaincode: "probe", Function: "write"}
	other := policy.AccessRule{Network: "remote-net", Org: "remote-org", Chaincode: "probe", Function: "other"}
	steps := []struct {
		name string
		edit func()
		want bool
	}{
		{"before the rule", func() {}, false},
		{"added", func() { putRule(t, state, write) }, true},
		{"removed", func() { deleteRule(t, state, write) }, false},
		{"re-added", func() { putRule(t, state, write) }, true},
		// Same number of rules, different values.
		{"replaced", func() { deleteRule(t, state, write); putRule(t, state, other) }, false},
	}
	for _, s := range steps {
		s.edit()
		for call := 1; call <= 2; call++ {
			if got := decide(t, reg, state, client, "write"); got != s.want {
				t.Fatalf("%s, call %d: permitted = %v, want %v", s.name, call, got, s.want)
			}
		}
		// The rule already recorded in helperEnv holds throughout.
		if !decide(t, reg, state, client, "read") {
			t.Fatalf("%s: the unedited read rule stopped permitting", s.name)
		}
	}
}

// TestECCRuleMemoSkipsOnlyTheDecode: repeated calls over unchanged rules
// are served from one memo entry, while the scan behind them — and so the
// read set a simulation records — is the same as on the call that built it.
func TestECCRuleMemoSkipsOnlyTheDecode(t *testing.T) {
	reg, state, _ := helperEnv(t)
	ecc := eccOf(t, reg)
	check := chaincode.Invocation{
		TxID: "tx", Chaincode: ECCName, Function: ECCCheckAccess, Timestamp: time.Unix(0, 0),
		Args: [][]byte{[]byte("remote-net"), []byte("remote-org"), []byte("probe"), []byte("read")},
	}
	first, err := chaincode.Simulate(reg, state, check)
	if err != nil {
		t.Fatalf("first CheckAccess: %v", err)
	}
	memo := ecc.rules.Load()
	if memo == nil {
		t.Fatal("no memo after a successful scan")
	}
	second, err := chaincode.Simulate(reg, state, check)
	if err != nil {
		t.Fatalf("second CheckAccess: %v", err)
	}
	if ecc.rules.Load() != memo {
		t.Fatal("unchanged rules were decoded again")
	}
	if len(first.RWSet.Reads) == 0 || !reflect.DeepEqual(first.RWSet.Reads, second.RWSet.Reads) {
		t.Fatalf("read sets differ between the decoding and the memoised call:\n%+v\n%+v", first.RWSet.Reads, second.RWSet.Reads)
	}
	putRule(t, state, policy.AccessRule{Network: "remote-net", Org: "remote-org", Chaincode: "probe", Function: "write"})
	if _, err := chaincode.Simulate(reg, state, check); err != nil {
		t.Fatalf("CheckAccess after an edit: %v", err)
	}
	if ecc.rules.Load() == memo {
		t.Fatal("an edited rule set was served from the old memo")
	}
}

// TestECCRuleMemoNeverHoldsACorruptRule: a rule value that does not decode
// is refused on every call — a failed decode is never memoised — and once
// it is gone the next call is served again.
func TestECCRuleMemoNeverHoldsACorruptRule(t *testing.T) {
	reg, state, foreignCA := helperEnv(t)
	client, err := foreignCA.Issue("remote-client", msp.RoleClient)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if !decide(t, reg, state, client, "read") {
		t.Fatal("recorded rule refused")
	}
	memo := eccOf(t, reg).rules.Load()

	corrupt, _ := statedb.CompositeKey(eccRulesKeyType, "remote-net", "remote-org", "probe", "zz")
	state.ApplyWrites([]statedb.Write{{Namespace: ECCName, Key: corrupt, Value: []byte("{not json")}}, statedb.Version{})
	for call := 1; call <= 3; call++ {
		if _, err := eccCall(reg, state, ECCCheckAccess, []byte("remote-net"), []byte("remote-org"), []byte("probe"), []byte("read")); err == nil {
			t.Fatalf("CheckAccess call %d: a corrupt rule set answered", call)
		}
		if _, err := eccCall(reg, state, ECCAuthorize, []byte("remote-net"), client.CertPEM(), []byte("probe"), []byte("read")); err == nil {
			t.Fatalf("Authorize call %d: a corrupt rule set answered", call)
		}
	}
	if eccOf(t, reg).rules.Load() != memo {
		t.Fatal("a failed decode replaced the memo")
	}

	state.ApplyWrites([]statedb.Write{{Namespace: ECCName, Key: corrupt, IsDelete: true}}, statedb.Version{})
	if !decide(t, reg, state, client, "read") {
		t.Fatal("rule refused after the corrupt value was removed")
	}
}

// TestECCRuleMemoIsPerInstance: two networks' ECC instances with different
// rule sets, queried alternately, each answer from their own rules.
func TestECCRuleMemoIsPerInstance(t *testing.T) {
	regA, stateA, caA := helperEnv(t)
	regB, stateB, caB := helperEnv(t)
	read := policy.AccessRule{Network: "remote-net", Org: "remote-org", Chaincode: "probe", Function: "read"}
	deleteRule(t, stateB, read)
	putRule(t, stateB, policy.AccessRule{Network: "remote-net", Org: "remote-org", Chaincode: "probe", Function: "write"})
	clientA, _ := caA.Issue("client-a", msp.RoleClient)
	clientB, _ := caB.Issue("client-b", msp.RoleClient)
	for round := 1; round <= 2; round++ {
		for _, c := range []struct {
			net    string
			reg    *chaincode.Registry
			state  *statedb.Store
			client *msp.Identity
			fn     string
			want   bool
		}{
			{"A", regA, stateA, clientA, "read", true},
			{"B", regB, stateB, clientB, "read", false},
			{"A", regA, stateA, clientA, "write", false},
			{"B", regB, stateB, clientB, "write", true},
		} {
			if got := decide(t, c.reg, c.state, c.client, c.fn); got != c.want {
				t.Fatalf("round %d, network %s, %s: permitted = %v, want %v", round, c.net, c.fn, got, c.want)
			}
		}
	}
}

// TestECCRuleMemoConcurrentCalls: the memo is shared by every goroutine
// evaluating through one ECC instance. Calls racing a rule being added and
// removed never fail and never lose the rule that stays recorded.
func TestECCRuleMemoConcurrentCalls(t *testing.T) {
	reg, state, _ := helperEnv(t)
	write := policy.AccessRule{Network: "remote-net", Org: "remote-org", Chaincode: "probe", Function: "write"}
	key, err := ruleKey(write)
	if err != nil {
		t.Fatalf("ruleKey: %v", err)
	}
	value, _ := write.Marshal()
	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			state.ApplyWrites([]statedb.Write{{Namespace: ECCName, Key: key, Value: value, IsDelete: i%2 == 1}}, statedb.Version{})
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, fn := range []string{"read", "write"} {
					got, err := eccCall(reg, state, ECCCheckAccess, []byte("remote-net"), []byte("remote-org"), []byte("probe"), []byte(fn))
					if err != nil {
						t.Errorf("CheckAccess %s: %v", fn, err)
						return
					}
					if fn == "read" && string(got) != "true" {
						t.Errorf("CheckAccess read = %s while only write was edited", got)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-toggled
}
