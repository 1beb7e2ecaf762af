package tradelens

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/relay"
)

// BuildNetwork assembles the STL network per §4.2: one Seller-organization
// peer and one Carrier-organization peer, the TradeLensCC chaincode under a
// both-orgs endorsement policy, and interop enablement (system contracts +
// relay).
func BuildNetwork(discovery relay.Discovery, transport relay.Transport) (*core.Network, error) {
	n := fabric.NewNetwork(NetworkID, orderer.Config{})
	if _, err := n.AddOrg(SellerOrg, 1); err != nil {
		return nil, fmt.Errorf("tradelens: %w", err)
	}
	if _, err := n.AddOrg(CarrierOrg, 1); err != nil {
		return nil, fmt.Errorf("tradelens: %w", err)
	}
	endorsement := fmt.Sprintf("AND('%s','%s')", SellerOrg, CarrierOrg)
	if err := n.Deploy(ChaincodeName, &Chaincode{}, endorsement); err != nil {
		return nil, fmt.Errorf("tradelens: %w", err)
	}
	interop, err := core.EnableInterop(n, discovery, transport, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("tradelens: %w", err)
	}
	return interop, nil
}

// SellerApp is the seller's application: it registers exports and tracks
// their documentation.
type SellerApp struct {
	client *core.Client
}

// NewSellerApp creates a seller-organization client.
func NewSellerApp(n *core.Network, name string) (*SellerApp, error) {
	client, err := core.NewClient(n, SellerOrg, name)
	if err != nil {
		return nil, err
	}
	return &SellerApp{client: client}, nil
}

// Client exposes the underlying interop client.
func (a *SellerApp) Client() *core.Client { return a.client }

// CreateShipment registers an export against a purchase order.
func (a *SellerApp) CreateShipment(ctx context.Context, poRef, seller, buyer, goods string) (*Shipment, error) {
	data, err := a.client.Submit(ctx, ChaincodeName, FnCreateShipment,
		[]byte(poRef), []byte(seller), []byte(buyer), []byte(goods))
	if err != nil {
		return nil, err
	}
	return UnmarshalShipment(data)
}

// Shipment fetches a shipment record.
func (a *SellerApp) Shipment(ctx context.Context, poRef string) (*Shipment, error) {
	data, err := a.client.Evaluate(ctx, ChaincodeName, FnGetShipment, []byte(poRef))
	if err != nil {
		return nil, err
	}
	return UnmarshalShipment(data)
}

// CarrierApp is the carrier's application: it books shipments, records
// possession and issues bills of lading.
type CarrierApp struct {
	client *core.Client
}

// NewCarrierApp creates a carrier-organization client.
func NewCarrierApp(n *core.Network, name string) (*CarrierApp, error) {
	client, err := core.NewClient(n, CarrierOrg, name)
	if err != nil {
		return nil, err
	}
	return &CarrierApp{client: client}, nil
}

// Client exposes the underlying interop client.
func (a *CarrierApp) Client() *core.Client { return a.client }

// BookShipment accepts a booking.
func (a *CarrierApp) BookShipment(ctx context.Context, poRef, carrier string) (*Shipment, error) {
	data, err := a.client.Submit(ctx, ChaincodeName, FnBookShipment, []byte(poRef), []byte(carrier))
	if err != nil {
		return nil, err
	}
	return UnmarshalShipment(data)
}

// RecordGateIn records that the goods reached the carrier.
func (a *CarrierApp) RecordGateIn(ctx context.Context, poRef string) (*Shipment, error) {
	data, err := a.client.Submit(ctx, ChaincodeName, FnRecordGateIn, []byte(poRef))
	if err != nil {
		return nil, err
	}
	return UnmarshalShipment(data)
}

// IssueBillOfLading records the B/L, completing §4.2 step 8.
func (a *CarrierApp) IssueBillOfLading(ctx context.Context, bl *BillOfLading) error {
	data, err := bl.Marshal()
	if err != nil {
		return err
	}
	_, err = a.client.Submit(ctx, ChaincodeName, FnIssueBL, data)
	return err
}

// AdminGateway returns a gateway bound to a fresh admin identity of the
// given organization, for governance transactions (recording configs,
// rules, policies).
func AdminGateway(n *core.Network, orgID string) (*fabric.Gateway, error) {
	org, err := n.Fabric.Org(orgID)
	if err != nil {
		return nil, err
	}
	id, err := org.CA.Issue(orgID+"-admin", msp.RoleAdmin)
	if err != nil {
		return nil, err
	}
	return n.Fabric.Gateway(id), nil
}
