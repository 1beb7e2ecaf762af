package tradelens

import (
	"errors"
	"fmt"

	"repro/internal/chaincode"
	"repro/internal/statedb"
	"repro/internal/syscc"
)

// Chaincode function names.
const (
	FnCreateShipment  = "CreateShipment"
	FnBookShipment    = "BookShipment"
	FnRecordGateIn    = "RecordGateIn"
	FnIssueBL         = "IssueBillOfLading"
	FnGetShipment     = "GetShipment"
	FnGetBillOfLading = "GetBillOfLading"
	FnListShipments   = "ListShipments"
	// EventBLIssued is emitted when a bill of lading is recorded.
	EventBLIssued = "bl-issued"
)

// Chaincode is the STL shipment and documentation contract. Its
// GetBillOfLading function carries the paper's source-side interop
// adaptation: an exposure-control check for relayed queries (§5 reports
// ~35 SLOC for this adaptation; see cmd/slocreport).
type Chaincode struct{}

var _ chaincode.Chaincode = (*Chaincode)(nil)

// Invoke dispatches TradeLensCC functions.
func (c *Chaincode) Invoke(stub chaincode.Stub) ([]byte, error) {
	switch stub.Function() {
	case FnCreateShipment:
		return c.createShipment(stub)
	case FnBookShipment:
		return c.bookShipment(stub)
	case FnRecordGateIn:
		return c.recordGateIn(stub)
	case FnIssueBL:
		return c.issueBL(stub)
	case FnGetShipment:
		return c.getShipment(stub)
	case FnGetBillOfLading:
		return c.getBillOfLading(stub)
	case FnListShipments:
		return c.listShipments(stub)
	default:
		return nil, fmt.Errorf("tradelens: unknown function %q", stub.Function())
	}
}

func shipmentKey(poRef string) (string, error) {
	return statedb.CompositeKey("shipment", poRef)
}

func blKey(poRef string) (string, error) {
	return statedb.CompositeKey("bl", poRef)
}

func loadShipment(stub chaincode.Stub, poRef string) (*Shipment, string, error) {
	key, err := shipmentKey(poRef)
	if err != nil {
		return nil, "", err
	}
	data, err := stub.GetState(key)
	if err != nil {
		return nil, "", err
	}
	if data == nil {
		return nil, "", fmt.Errorf("tradelens: no shipment for purchase order %q", poRef)
	}
	s, err := UnmarshalShipment(data)
	return s, key, err
}

func saveShipment(stub chaincode.Stub, key string, s *Shipment) error {
	data, err := s.Marshal()
	if err != nil {
		return err
	}
	return stub.PutState(key, data)
}

// createShipment registers an export: args = [poRef, seller, buyer, goods].
func (c *Chaincode) createShipment(stub chaincode.Stub) ([]byte, error) {
	args := stub.StringArgs()
	if len(args) != 4 {
		return nil, errors.New("tradelens: CreateShipment expects poRef, seller, buyer, goods")
	}
	poRef := args[0]
	key, err := shipmentKey(poRef)
	if err != nil {
		return nil, err
	}
	existing, err := stub.GetState(key)
	if err != nil {
		return nil, err
	}
	if existing != nil {
		return nil, fmt.Errorf("tradelens: shipment for %q already exists", poRef)
	}
	s := &Shipment{
		PORef:     poRef,
		Seller:    args[1],
		Buyer:     args[2],
		Goods:     args[3],
		Status:    StatusCreated,
		CreatedAt: stub.Timestamp(),
		UpdatedAt: stub.Timestamp(),
	}
	if err := saveShipment(stub, key, s); err != nil {
		return nil, err
	}
	return s.Marshal()
}

// bookShipment records the carrier's acceptance: args = [poRef, carrier].
func (c *Chaincode) bookShipment(stub chaincode.Stub) ([]byte, error) {
	args := stub.StringArgs()
	if len(args) != 2 {
		return nil, errors.New("tradelens: BookShipment expects poRef, carrier")
	}
	s, key, err := loadShipment(stub, args[0])
	if err != nil {
		return nil, err
	}
	if err := s.Advance(StatusBooked, stub.Timestamp()); err != nil {
		return nil, err
	}
	s.Carrier = args[1]
	if err := saveShipment(stub, key, s); err != nil {
		return nil, err
	}
	return s.Marshal()
}

// recordGateIn records delivery of the goods to the carrier: args = [poRef].
func (c *Chaincode) recordGateIn(stub chaincode.Stub) ([]byte, error) {
	args := stub.StringArgs()
	if len(args) != 1 {
		return nil, errors.New("tradelens: RecordGateIn expects poRef")
	}
	s, key, err := loadShipment(stub, args[0])
	if err != nil {
		return nil, err
	}
	if err := s.Advance(StatusGateIn, stub.Timestamp()); err != nil {
		return nil, err
	}
	if err := saveShipment(stub, key, s); err != nil {
		return nil, err
	}
	return s.Marshal()
}

// issueBL records the bill of lading: args = [blJSON]. The shipment must be
// at gate-in and the B/L must reference it.
func (c *Chaincode) issueBL(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 1 {
		return nil, errors.New("tradelens: IssueBillOfLading expects the B/L document")
	}
	bl, err := UnmarshalBillOfLading(args[0])
	if err != nil {
		return nil, err
	}
	if err := bl.Validate(); err != nil {
		return nil, err
	}
	s, key, err := loadShipment(stub, bl.PORef)
	if err != nil {
		return nil, err
	}
	if s.Carrier != bl.Carrier {
		return nil, fmt.Errorf("tradelens: B/L carrier %q does not match booked carrier %q", bl.Carrier, s.Carrier)
	}
	if err := s.Advance(StatusBLIssued, stub.Timestamp()); err != nil {
		return nil, err
	}
	s.BillOfLading = bl.BLID
	if err := saveShipment(stub, key, s); err != nil {
		return nil, err
	}
	bk, err := blKey(bl.PORef)
	if err != nil {
		return nil, err
	}
	if err := stub.PutState(bk, args[0]); err != nil {
		return nil, err
	}
	if err := stub.SetEvent(EventBLIssued, []byte(bl.PORef)); err != nil {
		return nil, err
	}
	return args[0], nil
}

// getShipment returns a shipment record: args = [poRef].
func (c *Chaincode) getShipment(stub chaincode.Stub) ([]byte, error) {
	args := stub.StringArgs()
	if len(args) != 1 {
		return nil, errors.New("tradelens: GetShipment expects poRef")
	}
	s, _, err := loadShipment(stub, args[0])
	if err != nil {
		return nil, err
	}
	return s.Marshal()
}

// getBillOfLading returns the B/L for a purchase order: args = [poRef].
// This is the function the paper exposes cross-network: the two inserted
// interop calls are the ECC authorization below (the response encryption
// happens in the per-peer attestation path; see internal/relay).
func (c *Chaincode) getBillOfLading(stub chaincode.Stub) ([]byte, error) {
	args := stub.Args()
	if len(args) != 1 {
		return nil, errors.New("tradelens: GetBillOfLading expects poRef")
	}
	// interop-adaptation-begin (source network, §5 ease of adaptation)
	if _, err := syscc.AuthorizeRelayRequest(stub, ChaincodeName); err != nil {
		return nil, err
	}
	// interop-adaptation-end
	key, err := blKey(string(args[0]))
	if err != nil {
		return nil, err
	}
	data, err := stub.GetState(key)
	if err != nil {
		return nil, err
	}
	if data == nil {
		return nil, fmt.Errorf("tradelens: no bill of lading for purchase order %q", args[0])
	}
	return data, nil
}

// listShipments returns all shipments as a JSON array.
func (c *Chaincode) listShipments(stub chaincode.Stub) ([]byte, error) {
	start, end, err := statedb.CompositeRange("shipment")
	if err != nil {
		return nil, err
	}
	kvs, err := stub.GetStateRange(start, end)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 2+64*len(kvs))
	out = append(out, '[')
	for i, kv := range kvs {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, kv.Value...)
	}
	out = append(out, ']')
	return out, nil
}
