// Package scenario assembles the paper's complete proof-of-concept (§4):
// the Simplified TradeLens and Simplified We.Trade networks, their relays,
// and the interop initialization both governing bodies perform before any
// cross-network operation — configuration exchange, the exposure-control
// rule on STL, and the verification policy on SWT. Examples, experiments
// and benchmarks all build on this package.
package scenario

import (
	"fmt"

	"repro/internal/apps/tradelens"
	"repro/internal/apps/wetrade"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/policy"
	"repro/internal/relay"
)

// Relay addresses used with the in-process hub.
const (
	STLRelayAddr = "stl-relay:9080"
	SWTRelayAddr = "swt-relay:9081"
)

// TradeWorld is the wired two-network world.
type TradeWorld struct {
	Hub      *relay.Hub
	Registry *relay.StaticRegistry

	STL *core.Network
	SWT *core.Network

	// Governance gateways used during initialization.
	STLAdmin *fabric.Gateway
	SWTAdmin *fabric.Gateway
}

// Build constructs and initializes the trade world over an in-process
// transport.
func Build() (*TradeWorld, error) {
	hub := relay.NewHub()
	registry := relay.NewStaticRegistry()
	w, err := BuildWith(registry, hub)
	if err != nil {
		return nil, err
	}
	hub.Attach(STLRelayAddr, w.STL.Relay)
	hub.Attach(SWTRelayAddr, w.SWT.Relay)
	registry.Register(tradelens.NetworkID, STLRelayAddr)
	registry.Register(wetrade.NetworkID, SWTRelayAddr)
	w.Hub = hub
	w.Registry = registry
	return w, nil
}

// BuildWith constructs the networks over caller-supplied discovery and
// transport (used for TCP deployments), leaving relay registration to the
// caller.
func BuildWith(discovery relay.Discovery, transport relay.Transport) (*TradeWorld, error) {
	stl, err := tradelens.BuildNetwork(discovery, transport)
	if err != nil {
		return nil, fmt.Errorf("scenario: build STL: %w", err)
	}
	swt, err := wetrade.BuildNetwork(discovery, transport)
	if err != nil {
		return nil, fmt.Errorf("scenario: build SWT: %w", err)
	}
	stlAdmin, err := tradelens.AdminGateway(stl, tradelens.SellerOrg)
	if err != nil {
		return nil, fmt.Errorf("scenario: STL admin: %w", err)
	}
	swtAdmin, err := wetrade.AdminGateway(swt, wetrade.BuyerBankOrg)
	if err != nil {
		return nil, fmt.Errorf("scenario: SWT admin: %w", err)
	}
	w := &TradeWorld{STL: stl, SWT: swt, STLAdmin: stlAdmin, SWTAdmin: swtAdmin}
	if err := w.initialize(); err != nil {
		return nil, err
	}
	return w, nil
}

// initialize performs §4.3's one-time setup: STL configuration recorded on
// the SWT ledger and vice versa, the access rule permitting SWT's seller
// organization to query GetBillOfLading, and SWT's verification policy
// requiring attestations from a peer in both STL organizations.
func (w *TradeWorld) initialize() error {
	if err := w.SWT.ConfigureForeignNetwork(w.SWTAdmin, w.STL.ExportConfig()); err != nil {
		return fmt.Errorf("scenario: record STL config on SWT: %w", err)
	}
	if err := w.STL.ConfigureForeignNetwork(w.STLAdmin, w.SWT.ExportConfig()); err != nil {
		return fmt.Errorf("scenario: record SWT config on STL: %w", err)
	}
	// The paper's rule: <"we-trade", "seller-org", "TradeLensCC",
	// "GetBillOfLading"> — members of SWT's seller organization may fetch
	// bills of lading.
	rule := policy.AccessRule{
		Network:   wetrade.NetworkID,
		Org:       wetrade.SellerBankOrg,
		Chaincode: tradelens.ChaincodeName,
		Function:  tradelens.FnGetBillOfLading,
	}
	if err := w.STL.GrantAccess(w.STLAdmin, rule); err != nil {
		return fmt.Errorf("scenario: grant access: %w", err)
	}
	// The paper's verification policy: proof from a peer in both the
	// Seller and Carrier organizations.
	vp := policy.VerificationPolicy{
		Network: tradelens.NetworkID,
		Expr: fmt.Sprintf("AND('%s.peer','%s.peer')",
			tradelens.SellerOrg, tradelens.CarrierOrg),
	}
	if err := w.SWT.SetVerificationPolicy(w.SWTAdmin, vp); err != nil {
		return fmt.Errorf("scenario: set verification policy: %w", err)
	}
	return nil
}

// Actors bundles the four §4.2 participants.
type Actors struct {
	STLSeller  *tradelens.SellerApp
	STLCarrier *tradelens.CarrierApp
	SWTBuyer   *wetrade.BuyerApp
	SWTSeller  *wetrade.SellerApp
}

// NewActors creates one application client per participant.
func (w *TradeWorld) NewActors() (*Actors, error) {
	stlSeller, err := tradelens.NewSellerApp(w.STL, "stl-seller-app")
	if err != nil {
		return nil, err
	}
	stlCarrier, err := tradelens.NewCarrierApp(w.STL, "stl-carrier-app")
	if err != nil {
		return nil, err
	}
	swtBuyer, err := wetrade.NewBuyerApp(w.SWT, "swt-buyer-client")
	if err != nil {
		return nil, err
	}
	swtSeller, err := wetrade.NewSellerApp(w.SWT, "swt-seller-client")
	if err != nil {
		return nil, err
	}
	return &Actors{
		STLSeller:  stlSeller,
		STLCarrier: stlCarrier,
		SWTBuyer:   swtBuyer,
		SWTSeller:  swtSeller,
	}, nil
}
