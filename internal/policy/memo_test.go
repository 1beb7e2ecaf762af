package policy

import (
	"strconv"
	"strings"
	"testing"
)

// TestUnmarshalVerificationPolicyWarmAllocations is the allocation tripwire
// of a warm decode: a lookup and nothing else.
func TestUnmarshalVerificationPolicyWarmAllocations(t *testing.T) {
	data, err := VerificationPolicy{Network: "tradelens", Expr: "AND('seller-org','carrier-org')"}.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if _, err := UnmarshalVerificationPolicy(data); err != nil {
		t.Fatalf("UnmarshalVerificationPolicy: %v", err)
	}
	if got := testing.AllocsPerRun(200, func() { _, _ = UnmarshalVerificationPolicy(data) }); got != 0 {
		t.Fatalf("warm UnmarshalVerificationPolicy: %v allocations, want 0", got)
	}
}

// TestVerificationPolicyMemoBounded: distinct inputs past the table bound
// leave it within the bound; a caller's copy is its own; an over-length
// input and a decode failure are never kept.
func TestVerificationPolicyMemoBounded(t *testing.T) {
	for i := 0; i < 3*decodedMax; i++ {
		data, _ := VerificationPolicy{Network: "net-" + strconv.Itoa(i), Expr: "'org'"}.Marshal()
		vp, err := UnmarshalVerificationPolicy(data)
		if err != nil || vp.Network != "net-"+strconv.Itoa(i) {
			t.Fatalf("policy %d: %+v, %v", i, vp, err)
		}
		vp.Network = "mutated"
		if again, _ := UnmarshalVerificationPolicy(data); again.Network != "net-"+strconv.Itoa(i) {
			t.Fatalf("policy %d: a caller's edit reached the memo: %+v", i, again)
		}
		if n := decoded.Len(); n > decodedMax {
			t.Fatalf("decode memo holds %d > %d after %d policies", n, decodedMax, i+1)
		}
	}
	padded := []byte(`{"network":"padded","expr":"'org'"}` + strings.Repeat(" ", memoPolicyMax))
	if _, err := UnmarshalVerificationPolicy(padded); err != nil {
		t.Fatalf("padded policy: %v", err)
	}
	bad := []byte(`{"network":`)
	if _, err := UnmarshalVerificationPolicy(bad); err == nil {
		t.Fatal("truncated policy decoded")
	}
	for name, data := range map[string][]byte{"over-length": padded, "failed": bad} {
		if _, kept := decoded.Get(data); kept {
			t.Fatalf("decode memo kept the %s input", name)
		}
	}
}
