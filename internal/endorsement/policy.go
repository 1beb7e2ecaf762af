// Package endorsement implements the signature policy language used both
// for transaction endorsement policies within a network and for the
// verification policies that destination networks impose on cross-network
// proofs (§3.3). A policy is a boolean expression over principals:
//
//	AND('seller-org','carrier-org')
//	OR('bank-a.peer', AND('bank-b','bank-c'))
//	OutOf(2, 'org1', 'org2', 'org3')
//
// A principal names an organization and optionally a role ('org' matches
// any role, 'org.peer' only peer identities). A policy is satisfied by a
// set of signer principals when the expression evaluates true with each
// leaf satisfied by at least one signer.
package endorsement

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/memo"
	"repro/internal/msp"
)

// ErrParse is returned for syntactically invalid policy expressions.
var ErrParse = errors.New("endorsement: policy parse error")

// Principal identifies a class of signers: an organization, optionally
// narrowed to a role. A zero Role matches any role.
type Principal struct {
	OrgID string
	Role  msp.Role
}

// String formats the principal in policy syntax.
func (p Principal) String() string {
	if p.Role == 0 {
		return "'" + p.OrgID + "'"
	}
	return "'" + p.OrgID + "." + p.Role.String() + "'"
}

// matches reports whether a signer satisfies this principal.
func (p Principal) matches(signer Principal) bool {
	if p.OrgID != signer.OrgID {
		return false
	}
	return p.Role == 0 || p.Role == signer.Role
}

// Policy is a parsed signature policy. It is immutable: its nodes are
// unexported and WithRole builds a new policy, so one *Policy is safely
// shared by every caller and goroutine.
type Policy struct {
	root node
	orgs []string // sorted organization IDs the tree references
}

// newPolicy wraps a tree and computes its organization list once.
func newPolicy(root node) *Policy {
	set := make(map[string]bool)
	root.orgs(set)
	orgs := make([]string, 0, len(set))
	for o := range set {
		orgs = append(orgs, o)
	}
	sort.Strings(orgs)
	return &Policy{root: root, orgs: orgs}
}

// node is one node of a policy tree: leafNode, andNode, orNode or
// outOfNode. satisfied evaluates a tree by type, not through the
// interface, so a signer list handed to Satisfied never escapes.
type node interface {
	orgs(into map[string]bool)
	format() string
}

type leafNode struct{ p Principal }

func (n leafNode) orgs(into map[string]bool) { into[n.p.OrgID] = true }
func (n leafNode) format() string            { return n.p.String() }

type andNode struct{ subs []node }

func (n andNode) orgs(into map[string]bool) {
	for _, s := range n.subs {
		s.orgs(into)
	}
}

func (n andNode) format() string { return "AND(" + joinNodes(n.subs) + ")" }

type orNode struct{ subs []node }

func (n orNode) orgs(into map[string]bool) {
	for _, s := range n.subs {
		s.orgs(into)
	}
}

func (n orNode) format() string { return "OR(" + joinNodes(n.subs) + ")" }

type outOfNode struct {
	n    int
	subs []node
}

func (n outOfNode) orgs(into map[string]bool) {
	for _, s := range n.subs {
		s.orgs(into)
	}
}

func (n outOfNode) format() string {
	return "OutOf(" + strconv.Itoa(n.n) + ", " + joinNodes(n.subs) + ")"
}

func joinNodes(subs []node) string {
	parts := make([]string, len(subs))
	for i, s := range subs {
		parts[i] = s.format()
	}
	return strings.Join(parts, ",")
}

// Satisfied reports whether the given signer set satisfies the policy.
// It retains nothing, so the caller's list may live on its stack.
func (p *Policy) Satisfied(signers []Principal) bool {
	if p == nil || p.root == nil {
		return false
	}
	return satisfied(p.root, signers)
}

// satisfied reports whether signers satisfy the tree rooted at n: an AND
// needs all its branches, an OR one, an OutOf its count. A branch list
// stops as soon as its outcome is known.
func satisfied(n node, signers []Principal) bool {
	var need int
	var subs []node
	switch n := n.(type) {
	case leafNode:
		for _, s := range signers {
			if n.p.matches(s) {
				return true
			}
		}
		return false
	case andNode:
		need, subs = len(n.subs), n.subs
	case orNode:
		need, subs = 1, n.subs
	case outOfNode:
		need, subs = n.n, n.subs
	default:
		return false
	}
	count := 0
	for i, s := range subs {
		if count >= need || count+len(subs)-i < need {
			break
		}
		if satisfied(s, signers) {
			count++
		}
	}
	return count >= need
}

// Orgs returns the sorted set of organization IDs the policy references.
// Relays use this to select which peers to query so the resulting proof can
// satisfy the policy (Fig. 2 step 5). The list is computed once, when the
// policy is built, and shared by every caller: it is read-only.
func (p *Policy) Orgs() []string {
	if p == nil {
		return nil
	}
	return p.orgs
}

// String returns the canonical expression form of the policy.
func (p *Policy) String() string {
	if p == nil || p.root == nil {
		return ""
	}
	return p.root.format()
}

// WithRole returns a copy of the policy in which every principal that does
// not already name a role is narrowed to the given role. This implements
// the §7 direction "construction of an optimal verification policy from a
// network's consensus policy": a destination network can derive its
// verification policy directly from the source chaincode's endorsement
// policy, narrowed to peer identities, so the attestor set mirrors the set
// whose endorsement made the data authoritative in the first place.
func (p *Policy) WithRole(role msp.Role) *Policy {
	if p == nil || p.root == nil {
		return nil
	}
	return newPolicy(withRole(p.root, role))
}

func withRole(n node, role msp.Role) node {
	switch v := n.(type) {
	case leafNode:
		if v.p.Role == 0 {
			return leafNode{p: Principal{OrgID: v.p.OrgID, Role: role}}
		}
		return v
	case andNode:
		return andNode{subs: withRoleAll(v.subs, role)}
	case orNode:
		return orNode{subs: withRoleAll(v.subs, role)}
	case outOfNode:
		return outOfNode{n: v.n, subs: withRoleAll(v.subs, role)}
	default:
		return n
	}
}

func withRoleAll(subs []node, role msp.Role) []node {
	out := make([]node, len(subs))
	for i, s := range subs {
		out[i] = withRole(s, role)
	}
	return out
}

const (
	// maxExprLen bounds a policy expression in bytes. Expressions arrive
	// in queries from other networks, and a longer one is refused before
	// it is read.
	maxExprLen = 16 << 10
	// maxExprDepth bounds how deeply operators nest. The parser recurses
	// once per level, so a deeper expression is refused at the level past
	// the bound, before anything inside it is parsed.
	maxExprDepth = 64
	// parsedMax bounds the parse memo: expressions arrive from other
	// networks, so the table must not grow with the number of distinct
	// expressions ever presented.
	parsedMax = 256
)

var parsed = memo.Table[string, *Policy]{Max: parsedMax}

// Parse parses a policy expression. Each distinct expression is parsed once
// per process: the result is memoised by the exact input and shared between
// callers, which is safe because a Policy is immutable. Failures are not
// remembered. An expression longer than maxExprLen bytes, or nesting
// operators deeper than maxExprDepth, is refused with ErrParse.
func Parse(expr string) (*Policy, error) {
	if p, ok := parsed.Get(expr); ok {
		return p, nil
	}
	p, err := parse(expr)
	if err != nil {
		return nil, err
	}
	parsed.Put(expr, p)
	return p, nil
}

// parse is the unmemoised parser behind Parse.
func parse(expr string) (*Policy, error) {
	if len(expr) > maxExprLen {
		return nil, fmt.Errorf("%w: expression of %d bytes exceeds %d", ErrParse, len(expr), maxExprLen)
	}
	pr := &parser{input: expr}
	root, err := pr.parseExpr()
	if err != nil {
		return nil, err
	}
	pr.skipSpace()
	if pr.pos != len(pr.input) {
		return nil, fmt.Errorf("%w: trailing input at offset %d", ErrParse, pr.pos)
	}
	return newPolicy(root), nil
}

// MustParse is Parse that panics on error, for statically known policies in
// tests and examples.
func MustParse(expr string) *Policy {
	p, err := Parse(expr)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	input string
	pos   int
	depth int // operators open at the cursor
}

func (pr *parser) skipSpace() {
	for pr.pos < len(pr.input) && (pr.input[pr.pos] == ' ' || pr.input[pr.pos] == '\t') {
		pr.pos++
	}
}

func (pr *parser) peek() byte {
	if pr.pos >= len(pr.input) {
		return 0
	}
	return pr.input[pr.pos]
}

func (pr *parser) expect(c byte) error {
	pr.skipSpace()
	if pr.peek() != c {
		return fmt.Errorf("%w: expected %q at offset %d", ErrParse, string(c), pr.pos)
	}
	pr.pos++
	return nil
}

func (pr *parser) parseExpr() (node, error) {
	pr.skipSpace()
	switch {
	case pr.hasKeyword("AND"):
		subs, err := pr.parseArgs()
		if err != nil {
			return nil, err
		}
		return andNode{subs: subs}, nil
	case pr.hasKeyword("OR"):
		subs, err := pr.parseArgs()
		if err != nil {
			return nil, err
		}
		return orNode{subs: subs}, nil
	case pr.hasKeyword("OutOf"):
		n, subs, err := pr.parseOutOfArgs()
		if err != nil {
			return nil, err
		}
		return outOfNode{n: n, subs: subs}, nil
	case pr.peek() == '\'':
		return pr.parsePrincipal()
	default:
		return nil, fmt.Errorf("%w: unexpected input at offset %d", ErrParse, pr.pos)
	}
}

// hasKeyword consumes the keyword if it is present at the cursor, matched
// case-insensitively, and only when followed by '('.
func (pr *parser) hasKeyword(kw string) bool {
	save := pr.pos
	pr.skipSpace()
	if len(pr.input)-pr.pos < len(kw) {
		pr.pos = save
		return false
	}
	if !strings.EqualFold(pr.input[pr.pos:pr.pos+len(kw)], kw) {
		pr.pos = save
		return false
	}
	rest := pr.pos + len(kw)
	for rest < len(pr.input) && (pr.input[rest] == ' ' || pr.input[rest] == '\t') {
		rest++
	}
	if rest >= len(pr.input) || pr.input[rest] != '(' {
		pr.pos = save
		return false
	}
	pr.pos += len(kw)
	return true
}

// parseArgs parses an AND or OR operand list: '(' operands ')'.
func (pr *parser) parseArgs() ([]node, error) {
	if err := pr.expect('('); err != nil {
		return nil, err
	}
	return pr.parseOperands()
}

func (pr *parser) parseOutOfArgs() (int, []node, error) {
	if err := pr.expect('('); err != nil {
		return 0, nil, err
	}
	pr.skipSpace()
	start := pr.pos
	for pr.pos < len(pr.input) && pr.input[pr.pos] >= '0' && pr.input[pr.pos] <= '9' {
		pr.pos++
	}
	if start == pr.pos {
		return 0, nil, fmt.Errorf("%w: OutOf requires a leading count", ErrParse)
	}
	n, err := strconv.Atoi(pr.input[start:pr.pos])
	if err != nil || n < 1 {
		return 0, nil, fmt.Errorf("%w: bad OutOf count", ErrParse)
	}
	if err := pr.expect(','); err != nil {
		return 0, nil, err
	}
	subs, err := pr.parseOperands()
	if err != nil {
		return 0, nil, err
	}
	if n > len(subs) {
		return 0, nil, fmt.Errorf("%w: OutOf count %d exceeds %d alternatives", ErrParse, n, len(subs))
	}
	return n, subs, nil
}

// parseOperands parses an operator's comma-separated operands and its
// closing parenthesis, one nesting level below the operator. The level past
// maxExprDepth is refused before its first operand is read.
func (pr *parser) parseOperands() ([]node, error) {
	if pr.depth == maxExprDepth {
		return nil, fmt.Errorf("%w: operators nest deeper than %d at offset %d", ErrParse, maxExprDepth, pr.pos)
	}
	pr.depth++
	var subs []node
	for {
		sub, err := pr.parseExpr()
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
		pr.skipSpace()
		if pr.peek() == ',' {
			pr.pos++
			continue
		}
		break
	}
	pr.depth--
	if err := pr.expect(')'); err != nil {
		return nil, err
	}
	return subs, nil
}

func (pr *parser) parsePrincipal() (node, error) {
	if err := pr.expect('\''); err != nil {
		return nil, err
	}
	start := pr.pos
	for pr.pos < len(pr.input) && pr.input[pr.pos] != '\'' {
		pr.pos++
	}
	if pr.pos >= len(pr.input) {
		return nil, fmt.Errorf("%w: unterminated principal", ErrParse)
	}
	raw := pr.input[start:pr.pos]
	pr.pos++ // consume closing quote
	if raw == "" {
		return nil, fmt.Errorf("%w: empty principal", ErrParse)
	}
	principal := Principal{OrgID: raw}
	if i := strings.LastIndexByte(raw, '.'); i >= 0 {
		role, err := msp.ParseRole(raw[i+1:])
		if err == nil {
			principal = Principal{OrgID: raw[:i], Role: role}
		}
		// An unknown suffix is treated as part of the org name, which
		// allows dotted organization identifiers.
	}
	if principal.OrgID == "" {
		return nil, fmt.Errorf("%w: empty org in principal", ErrParse)
	}
	return leafNode{p: principal}, nil
}
