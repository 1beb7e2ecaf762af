package scenario

import (
	"context"
	"fmt"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/chaincode"
	"repro/internal/fabric"
	"repro/internal/ledger"
	"repro/internal/policy"
	"repro/internal/syscc"
)

// AuditChaincodeName is the writable cross-network contract deployed on
// STL by DeployAuditLog.
const AuditChaincodeName = "auditcc"

// AuditContract is a minimal writable contract for cross-network invokes:
// Append grows a per-key log under the exposure-control adaptation, so
// every successful invoke has a visible, countable effect — the property
// both the exactly-once test suites and the load-generation harness rely
// on to audit commits against issued requests.
var AuditContract = chaincode.Func(func(stub chaincode.Stub) ([]byte, error) {
	switch stub.Function() {
	case "Append":
		if _, err := syscc.AuthorizeRelayRequest(stub, AuditChaincodeName); err != nil {
			return nil, err
		}
		key := "log/" + string(stub.Args()[0])
		cur, err := stub.GetState(key)
		if err != nil {
			return nil, err
		}
		// cur is read-only, but GetState clips it to its length, so this
		// append copies it instead of writing past it into the store.
		next := append(cur, stub.Args()[1]...)
		if err := stub.PutState(key, next); err != nil {
			return nil, err
		}
		return next, nil
	case "Read":
		return stub.GetState("log/" + string(stub.Args()[0]))
	default:
		return nil, fmt.Errorf("unknown function %q", stub.Function())
	}
})

// DeployAuditLog deploys the audit contract on STL under a both-orgs
// endorsement policy and grants SWT's seller organization the Append
// exposure-control rule, making STL writable cross-network.
func DeployAuditLog(w *TradeWorld) error {
	if err := w.STL.Fabric.Deploy(AuditChaincodeName, AuditContract,
		fmt.Sprintf("AND('%s','%s')", tradelens.SellerOrg, tradelens.CarrierOrg)); err != nil {
		return fmt.Errorf("scenario: deploy %s: %w", AuditChaincodeName, err)
	}
	if err := w.STL.GrantAccess(w.STLAdmin, policy.AccessRule{
		Network: wetrade.NetworkID, Org: wetrade.SellerBankOrg,
		Chaincode: AuditChaincodeName, Function: "Append",
	}); err != nil {
		return fmt.Errorf("scenario: grant %s access: %w", AuditChaincodeName, err)
	}
	return nil
}

// Commits counts the commits of one transaction ID by outcome.
type Commits struct {
	Valid, Duplicate int
}

// CommitsByTxID scans a network's ledger once and counts the valid and
// duplicate commits of every transaction ID — the ground truth the
// exactly-once guarantee is judged against. Any peer serves: every peer
// validates and commits every block.
func CommitsByTxID(net *fabric.Network) (map[string]Commits, error) {
	counts := make(map[string]Commits)
	blocks := net.AllPeers()[0].Blocks()
	for num := uint64(0); num < blocks.Height(); num++ {
		b, err := blocks.Block(num)
		if err != nil {
			return nil, fmt.Errorf("scenario: block %d: %w", num, err)
		}
		for _, tx := range b.Transactions {
			c := counts[tx.ID]
			switch tx.Validation {
			case ledger.Valid:
				c.Valid++
			case ledger.Duplicate:
				c.Duplicate++
			default:
				continue
			}
			counts[tx.ID] = c
		}
	}
	return counts, nil
}

// SeedShipments drives the full STL lifecycle — create, book, gate-in,
// bill-of-lading issuance — for each purchase-order reference, so
// cross-network queries have a populated key space to fetch from.
func SeedShipments(ctx context.Context, actors *Actors, poRefs ...string) error {
	for _, po := range poRefs {
		if _, err := actors.STLSeller.CreateShipment(ctx, po, "Acme Exports", "Globex Imports", "goods"); err != nil {
			return fmt.Errorf("scenario: seed %s create: %w", po, err)
		}
		if _, err := actors.STLCarrier.BookShipment(ctx, po, "Oceanic Lines"); err != nil {
			return fmt.Errorf("scenario: seed %s book: %w", po, err)
		}
		if _, err := actors.STLCarrier.RecordGateIn(ctx, po); err != nil {
			return fmt.Errorf("scenario: seed %s gate-in: %w", po, err)
		}
		if err := actors.STLCarrier.IssueBillOfLading(ctx, &tradelens.BillOfLading{
			BLID: "bl-" + po, PORef: po, Carrier: "Oceanic Lines",
		}); err != nil {
			return fmt.Errorf("scenario: seed %s issue B/L: %w", po, err)
		}
	}
	return nil
}
