package endorsement

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/msp"
)

// nested returns a valid expression whose operators nest depth levels.
func nested(depth int) string {
	return strings.Repeat("AND(", depth) + "'org'" + strings.Repeat(")", depth)
}

// TestParseBoundsNestingAndLength: an expression at either bound parses;
// one level deeper, or one byte longer, is refused with ErrParse.
func TestParseBoundsNestingAndLength(t *testing.T) {
	if _, err := Parse(nested(maxExprDepth)); err != nil {
		t.Fatalf("depth %d: %v", maxExprDepth, err)
	}
	if _, err := Parse(nested(maxExprDepth + 1)); !errors.Is(err, ErrParse) {
		t.Fatalf("depth %d: err = %v, want ErrParse", maxExprDepth+1, err)
	}
	// Depth counts open operators, not operators overall: siblings at the
	// bound are fine.
	wide := "OR(" + nested(maxExprDepth-1) + "," + nested(maxExprDepth-1) + ")"
	if _, err := Parse(wide); err != nil {
		t.Fatalf("two operands at depth %d: %v", maxExprDepth, err)
	}
	for _, op := range []string{"OR(", "OutOf(1,"} {
		deep := strings.Repeat(op, maxExprDepth+1) + "'org'" + strings.Repeat(")", maxExprDepth+1)
		if _, err := Parse(deep); !errors.Is(err, ErrParse) {
			t.Fatalf("%s nested %d deep: err = %v, want ErrParse", op, maxExprDepth+1, err)
		}
	}

	atBound := "'org'" + strings.Repeat(" ", maxExprLen-len("'org'"))
	if _, err := Parse(atBound); err != nil {
		t.Fatalf("%d bytes: %v", len(atBound), err)
	}
	if _, err := Parse(atBound + " "); !errors.Is(err, ErrParse) {
		t.Fatalf("%d bytes: err = %v, want ErrParse", len(atBound)+1, err)
	}
	// Far past both bounds, as one unauthenticated query could carry it:
	// refused without recursing.
	if _, err := Parse(strings.Repeat("AND(", 5_000_000)); !errors.Is(err, ErrParse) {
		t.Fatalf("20 MB of AND(: err = %v, want ErrParse", err)
	}
	if _, err := parse(strings.Repeat("AND(", maxExprLen/4)); !errors.Is(err, ErrParse) {
		t.Fatalf("AND( to the length bound: err = %v, want ErrParse", err)
	}
}

// TestParseMemoSharesOneTree: a second Parse of the same expression returns
// the very same immutable tree.
func TestParseMemoSharesOneTree(t *testing.T) {
	expr := "OR('memo-a.peer', AND('memo-b','memo-c'))"
	first, err := Parse(expr)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	second, err := Parse(strings.Clone(expr))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if first != second {
		t.Fatal("a warm Parse built a second tree")
	}
}

// TestParseMemoFlood: more distinct expressions than the table holds leave
// it within its bound, and neither an over-length input nor a parse
// failure is ever kept.
func TestParseMemoFlood(t *testing.T) {
	for i := 0; i < 3*parsedMax; i++ {
		if _, err := Parse("'flood-" + strconv.Itoa(i) + "'"); err != nil {
			t.Fatalf("expression %d: %v", i, err)
		}
		if n := parsed.Len(); n > parsedMax {
			t.Fatalf("parse memo holds %d > %d after %d expressions", n, parsedMax, i+1)
		}
	}
	for _, bad := range []string{
		"AND(",
		"OutOf(3,'a','b')",
		nested(maxExprDepth + 1),
		"'org'" + strings.Repeat(" ", maxExprLen),
	} {
		for pass := 0; pass < 2; pass++ {
			if _, err := Parse(bad); !errors.Is(err, ErrParse) {
				t.Fatalf("pass %d of a %d-byte bad expression: err = %v, want ErrParse", pass, len(bad), err)
			}
		}
		if _, kept := parsed.Get(bad); kept {
			t.Fatalf("parse memo kept a failed %d-byte expression", len(bad))
		}
	}
}

// TestParseWarmAllocations is the allocation tripwire of a warm Parse: a
// lookup and nothing else.
func TestParseWarmAllocations(t *testing.T) {
	expr := "OR('regulator', AND('seller-org.peer','carrier-org.peer'), OutOf(2,'a','b','c'))"
	if _, err := Parse(expr); err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := testing.AllocsPerRun(200, func() { _, _ = Parse(expr) }); got != 0 {
		t.Fatalf("warm Parse: %v allocations, want 0", got)
	}
}

// TestParseMemoConcurrent hammers Parse from 8 goroutines while they use
// the shared trees; run under -race it is the check that a memoised
// *Policy needs no locking.
func TestParseMemoConcurrent(t *testing.T) {
	exprs := []string{
		"AND('hammer-a','hammer-b')",
		"OR('hammer-a.peer', AND('hammer-b','hammer-c'))",
		"OutOf(2, 'hammer-a', 'hammer-b.admin', 'hammer-c')",
	}
	signers := []Principal{{OrgID: "hammer-a", Role: msp.RolePeer}, {OrgID: "hammer-b", Role: msp.RolePeer}}
	type want struct {
		satisfied bool
		orgs      string
		str       string
		peerStr   string
	}
	wants := make([]want, len(exprs))
	for i, e := range exprs {
		p, err := parse(e)
		if err != nil {
			t.Fatalf("parse %q: %v", e, err)
		}
		wants[i] = want{p.Satisfied(signers), strings.Join(p.Orgs(), ","), p.String(), p.WithRole(msp.RolePeer).String()}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (g + i) % len(exprs)
				if i%50 == 0 {
					// Distinct misses interleave puts with the shared reads.
					if _, err := Parse("'hammer-" + strconv.Itoa(g) + "-" + strconv.Itoa(i) + "'"); err != nil {
						errs <- err
						return
					}
				}
				p, err := Parse(exprs[k])
				if err != nil {
					errs <- err
					return
				}
				got := want{p.Satisfied(signers), strings.Join(p.Orgs(), ","), p.String(), p.WithRole(msp.RolePeer).String()}
				if got != wants[k] {
					errs <- errors.New("shared policy " + exprs[k] + " changed under concurrent use")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzParsePolicy: the memoised Parse agrees with the unmemoised parser on
// whether an input is an error and on its canonical form, cold and warm,
// and never panics.
func FuzzParsePolicy(f *testing.F) {
	for _, seed := range []string{
		"AND('seller-org','carrier-org')",
		"OR('bank-a.peer', AND('bank-b','bank-c'))",
		"OutOf(2, 'org1', 'org2', 'org3')",
		"and ( 'a' , or('b.peer','c.admin') )",
		"'dotted.org.name'",
		"OutOf(0,'a')",
		"AND(",
		nested(maxExprDepth),
		nested(maxExprDepth + 1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		want, wantErr := parse(expr)
		for _, pass := range []string{"cold", "warm"} {
			got, err := Parse(expr)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s Parse(%q) err = %v, unmemoised err = %v", pass, expr, err, wantErr)
			}
			if err != nil {
				if !errors.Is(err, ErrParse) {
					t.Fatalf("%s Parse(%q) err = %v, want ErrParse", pass, expr, err)
				}
				continue
			}
			if got.String() != want.String() {
				t.Fatalf("%s Parse(%q) = %s, unmemoised %s", pass, expr, got, want)
			}
		}
	})
}
