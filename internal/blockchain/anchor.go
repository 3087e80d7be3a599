// Cross-chain anchoring for the federated two-tier topology: each
// neighborhood cluster periodically commits its latest block root and
// height into an AnchorRecord sealed on a regional super-chain. The anchor
// chain is an ordinary Chain — anchor records ride the existing injective
// Record encoding (and therefore the Merkle tree, the chain file format
// and chainctl) by mapping:
//
//	DeviceID       <- cluster ID          (the "meter" being anchored)
//	Seq            <- neighborhood height (blocks sealed at anchoring time)
//	ReportedVia    <- hex(block root)     (header hash of block Height-1)
//	HomeAggregator <- "fed/anchor"        (domain marker; no aggregator
//	                                       uses a '/' in its ID)
//
// Header hashes never cover the block signature, so the anchored root pins
// the neighborhood block exactly as consensus linked it — the same
// property the pipelined seal path relies on.
package blockchain

import (
	"encoding/hex"
	"fmt"
	"time"
)

// AnchorHome is the HomeAggregator marker distinguishing anchor records
// from consumption records. Aggregator IDs never contain '/'.
const AnchorHome = "fed/anchor"

// AnchorRecord is one cluster's chain head commitment on the super-chain.
type AnchorRecord struct {
	// ClusterID names the neighborhood cluster being anchored.
	ClusterID string
	// Height is the neighborhood chain's length when anchored; the root
	// is the header hash of its block Height-1.
	Height uint64
	// Root is the neighborhood chain's head header hash.
	Root Hash
	// SealedAt is the regional signer's wall-clock stamp.
	SealedAt time.Time
}

// Record maps the anchor onto the ledger's record encoding.
func (a AnchorRecord) Record() Record {
	return Record{
		DeviceID:       a.ClusterID,
		Seq:            a.Height,
		HomeAggregator: AnchorHome,
		ReportedVia:    hex.EncodeToString(a.Root[:]),
		Timestamp:      a.SealedAt,
	}
}

// IsAnchorRecord reports whether r carries an anchor commitment.
func IsAnchorRecord(r Record) bool { return r.HomeAggregator == AnchorHome }

// AnchorFromRecord decodes an anchor commitment from its record form.
func AnchorFromRecord(r Record) (AnchorRecord, error) {
	if !IsAnchorRecord(r) {
		return AnchorRecord{}, fmt.Errorf("blockchain: record %q/%d is not an anchor", r.DeviceID, r.Seq)
	}
	a := AnchorRecord{ClusterID: r.DeviceID, Height: r.Seq, SealedAt: r.Timestamp}
	if a.ClusterID == "" {
		return AnchorRecord{}, fmt.Errorf("blockchain: anchor record without cluster ID")
	}
	if a.Height == 0 {
		return AnchorRecord{}, fmt.Errorf("blockchain: anchor for %q has zero height", a.ClusterID)
	}
	root, err := hex.DecodeString(r.ReportedVia)
	if err != nil || len(root) != len(a.Root) {
		return AnchorRecord{}, fmt.Errorf("blockchain: anchor for %q has malformed root %q", a.ClusterID, r.ReportedVia)
	}
	copy(a.Root[:], root)
	return a, nil
}

// Anchors decodes every anchor record on the super-chain, in sealing
// order. A non-anchor record on the chain is an error: the regional
// super-chain carries commitments only.
func Anchors(anchor *Chain) ([]AnchorRecord, error) {
	var out []AnchorRecord
	for i := 0; i < anchor.Length(); i++ {
		b, err := anchor.Block(i)
		if err != nil {
			return nil, err
		}
		for _, r := range b.Records {
			a, err := AnchorFromRecord(r)
			if err != nil {
				return nil, fmt.Errorf("blockchain: anchor block %d: %w", i, err)
			}
			out = append(out, a)
		}
	}
	return out, nil
}

// AnchorsFor returns the anchors committed for one cluster, in order.
func AnchorsFor(anchor *Chain, clusterID string) ([]AnchorRecord, error) {
	all, err := Anchors(anchor)
	if err != nil {
		return nil, err
	}
	var out []AnchorRecord
	for _, a := range all {
		if a.ClusterID == clusterID {
			out = append(out, a)
		}
	}
	return out, nil
}

// VerifyAnchorInclusion proves a neighborhood chain against the regional
// super-chain: every anchor committed for clusterID must match the header
// hash the neighborhood chain actually has at that height, anchored
// heights must never regress, and the latest anchor must cover the chain's
// head (otherwise blocks were sealed after the last commitment — or the
// chain was truncated past it). Callers verify each chain's signatures and
// linkage separately (Chain.Verify); inclusion is about cross-chain
// consistency.
func VerifyAnchorInclusion(anchor *Chain, clusterID string, neighborhood *Chain) error {
	anchors, err := AnchorsFor(anchor, clusterID)
	if err != nil {
		return err
	}
	if len(anchors) == 0 {
		return fmt.Errorf("blockchain: no anchors for cluster %q", clusterID)
	}
	prev := uint64(0)
	for i, a := range anchors {
		if a.Height < prev {
			return fmt.Errorf("blockchain: cluster %q anchor %d regresses height %d -> %d",
				clusterID, i, prev, a.Height)
		}
		prev = a.Height
		if int(a.Height) > neighborhood.Length() {
			return fmt.Errorf("blockchain: cluster %q anchored at height %d but chain has %d blocks",
				clusterID, a.Height, neighborhood.Length())
		}
		b, err := neighborhood.Block(int(a.Height) - 1)
		if err != nil {
			return err
		}
		if got := b.Hash(); got != a.Root {
			return fmt.Errorf("blockchain: cluster %q root mismatch at height %d: anchored %s, chain has %s",
				clusterID, a.Height, a.Root, got)
		}
	}
	if int(prev) != neighborhood.Length() {
		return fmt.Errorf("blockchain: cluster %q head not anchored: latest anchor covers height %d of %d",
			clusterID, prev, neighborhood.Length())
	}
	return nil
}
