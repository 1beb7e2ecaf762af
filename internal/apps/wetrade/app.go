package wetrade

import (
	"context"

	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/msp"
	"repro/internal/orderer"
	"repro/internal/relay"
)

// BuildNetwork assembles the SWT network per §4.2: two peers in the buyer's
// bank organization and two in the seller's bank organization, the
// WeTradeCC chaincode under a both-banks endorsement policy (§4.3: "the
// UploadDispatchDocs transaction requires 2 endorsements: one from a peer
// each in the Buyer's Bank and Seller's Bank"), and interop enablement.
func BuildNetwork(discovery relay.Discovery, transport relay.Transport) (*core.Network, error) {
	n := fabric.NewNetwork(NetworkID, orderer.Config{})
	if _, err := n.AddOrg(BuyerBankOrg, 2); err != nil {
		return nil, fmt.Errorf("wetrade: %w", err)
	}
	if _, err := n.AddOrg(SellerBankOrg, 2); err != nil {
		return nil, fmt.Errorf("wetrade: %w", err)
	}
	endorsement := fmt.Sprintf("AND('%s','%s')", BuyerBankOrg, SellerBankOrg)
	if err := n.Deploy(ChaincodeName, NewChaincode(), endorsement); err != nil {
		return nil, fmt.Errorf("wetrade: %w", err)
	}
	interop, err := core.EnableInterop(n, discovery, transport, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("wetrade: %w", err)
	}
	return interop, nil
}

// BuyerApp acts for the buyer (a client of the buyer's bank): it applies
// for letters of credit and settles them.
type BuyerApp struct {
	client *core.Client
}

// NewBuyerApp creates a buyer-bank-organization client.
func NewBuyerApp(n *core.Network, name string) (*BuyerApp, error) {
	client, err := core.NewClient(n, BuyerBankOrg, name)
	if err != nil {
		return nil, err
	}
	return &BuyerApp{client: client}, nil
}

// Client exposes the underlying interop client.
func (a *BuyerApp) Client() *core.Client { return a.client }

// RequestLC applies for a letter of credit.
func (a *BuyerApp) RequestLC(ctx context.Context, lc *LetterOfCredit) (*LetterOfCredit, error) {
	data, err := lc.Marshal()
	if err != nil {
		return nil, err
	}
	out, err := a.client.Submit(ctx, ChaincodeName, FnRequestLC, data)
	if err != nil {
		return nil, err
	}
	return UnmarshalLetterOfCredit(out)
}

// IssueLC records the buyer's bank issuing the L/C.
func (a *BuyerApp) IssueLC(ctx context.Context, lcID string) (*LetterOfCredit, error) {
	return a.lcOp(ctx, FnIssueLC, lcID)
}

// MakePayment settles the L/C.
func (a *BuyerApp) MakePayment(ctx context.Context, lcID string) (*Payment, error) {
	data, err := a.client.Submit(ctx, ChaincodeName, FnMakePayment, []byte(lcID))
	if err != nil {
		return nil, err
	}
	return UnmarshalPayment(data)
}

// LC fetches the letter of credit.
func (a *BuyerApp) LC(ctx context.Context, lcID string) (*LetterOfCredit, error) {
	data, err := a.client.Evaluate(ctx, ChaincodeName, FnGetLC, []byte(lcID))
	if err != nil {
		return nil, err
	}
	return UnmarshalLetterOfCredit(data)
}

func (a *BuyerApp) lcOp(ctx context.Context, fn, lcID string) (*LetterOfCredit, error) {
	data, err := a.client.Submit(ctx, ChaincodeName, fn, []byte(lcID))
	if err != nil {
		return nil, err
	}
	return UnmarshalLetterOfCredit(data)
}

// SellerApp acts for the seller (the SWT Seller Client of §4.3, a client of
// the seller's bank and also a member of STL): it accepts L/Cs, fetches the
// B/L cross-network, and requests payment.
type SellerApp struct {
	client *core.Client
}

// NewSellerApp creates a seller-bank-organization client.
func NewSellerApp(n *core.Network, name string) (*SellerApp, error) {
	client, err := core.NewClient(n, SellerBankOrg, name)
	if err != nil {
		return nil, err
	}
	return &SellerApp{client: client}, nil
}

// Client exposes the underlying interop client.
func (a *SellerApp) Client() *core.Client { return a.client }

// AcceptLC records the seller's bank accepting the L/C.
func (a *SellerApp) AcceptLC(ctx context.Context, lcID string) (*LetterOfCredit, error) {
	data, err := a.client.Submit(ctx, ChaincodeName, FnAcceptLC, []byte(lcID))
	if err != nil {
		return nil, err
	}
	return UnmarshalLetterOfCredit(data)
}

// FetchAndUploadBL performs the paper's Fig. 4 flow end to end: a
// cross-network GetBillOfLading query through the local relay, followed by
// an UploadDispatchDocs transaction embedding the result and its proof.
// The destination chaincode re-validates the proof via the CMDAC on every
// endorsing peer. (§5 reports ~80 SLOC for this application adaptation;
// the calls below are that adaptation.) ctx bounds the cross-network query
// and gates the upload.
func (a *SellerApp) FetchAndUploadBL(ctx context.Context, lcID, poRef string) (*LetterOfCredit, error) {
	// interop-adaptation-begin (destination application, §5 ease of adaptation)
	data, err := a.client.RemoteQuery(ctx, core.RemoteQuerySpec{
		Network:  "tradelens",
		Contract: "TradeLensCC",
		Function: "GetBillOfLading",
		Args:     [][]byte{[]byte(poRef)},
	})
	if err != nil {
		return nil, fmt.Errorf("wetrade: fetch B/L for %s: %w", poRef, err)
	}
	out, err := a.client.Submit(ctx, ChaincodeName, FnUploadDispatchDocs, []byte(lcID), data.BundleBytes)
	// interop-adaptation-end
	if err != nil {
		return nil, err
	}
	return UnmarshalLetterOfCredit(out)
}

// UploadForgedBL attempts to upload a document without a valid proof — the
// fraud the interoperation step exists to prevent. It is exercised by the
// E7 experiments and always fails on-chain.
func (a *SellerApp) UploadForgedBL(ctx context.Context, lcID string, forgedBundle []byte) error {
	_, err := a.client.Submit(ctx, ChaincodeName, FnUploadDispatchDocs, []byte(lcID), forgedBundle)
	return err
}

// RequestPayment claims payment under the L/C; the chaincode enforces that
// verified dispatch documents were uploaded first.
func (a *SellerApp) RequestPayment(ctx context.Context, lcID string) (*LetterOfCredit, error) {
	data, err := a.client.Submit(ctx, ChaincodeName, FnRequestPayment, []byte(lcID))
	if err != nil {
		return nil, err
	}
	return UnmarshalLetterOfCredit(data)
}

// LC fetches the letter of credit.
func (a *SellerApp) LC(ctx context.Context, lcID string) (*LetterOfCredit, error) {
	data, err := a.client.Evaluate(ctx, ChaincodeName, FnGetLC, []byte(lcID))
	if err != nil {
		return nil, err
	}
	return UnmarshalLetterOfCredit(data)
}

// AdminGateway returns a governance gateway for the given organization.
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
