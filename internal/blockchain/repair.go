// Chain-file self-repair: a damaged export (truncated mid-block, bit-
// flipped header/signature/record bytes, a duplicated tail) is rebuilt
// from a healthy peer's export of the same chain. Every replica seals the
// identical consensus-agreed chain, so any healthy peer's file is a valid
// donor — the repair only has to prove the donor really is healthy, really
// extends the damaged file's surviving prefix, and really verifies once
// written back.
package blockchain

import (
	"fmt"
	"io"
	"math/big"
	"os"
)

// RepairReport summarizes a RepairFile run.
type RepairReport struct {
	// PrefixBlocks is the damaged file's surviving valid prefix;
	// MatchedBlocks of it were byte-compared equal (header hash and
	// signature) against the healthy donor — always the full prefix, or
	// the repair refuses.
	PrefixBlocks  int
	MatchedBlocks int
	// RepairedBlocks is how many blocks the donor contributed beyond the
	// prefix; FinalBlocks the repaired file's verified height.
	RepairedBlocks int
	FinalBlocks    int
	// Damage is what ReadFilePrefix found in the damaged file (nil when
	// the file already loaded clean and nothing needed rewriting).
	Damage *Damage
}

// sigEqual compares stored signatures exactly (both nil, or equal R and S).
func sigEqual(a, b Signature) bool {
	cmp := func(x, y *big.Int) bool {
		if x == nil || y == nil {
			return x == y
		}
		return x.Cmp(y) == 0
	}
	return cmp(a.R, b.R) && cmp(a.S, b.S)
}

// RepairFile rebuilds the chain file at damagedPath from the export at
// healthyPath. The donor must load and verify clean and must be at least
// as long as the damaged file's valid prefix; every prefix block must
// match the donor byte-for-byte (header hash and signature — the
// signature compare catches flips that a nil-authority load cannot see).
// On success the donor's content replaces damagedPath atomically (temp
// file + rename, no window where the file is half-written), the result is
// re-verified from disk, and the report says how much was restored. A
// file that loads clean and byte-matches the donor's prefix is left
// untouched: catching a healthy-but-short replica up is the consensus
// sync's job, not the file repair's.
func RepairFile(damagedPath, healthyPath string, authority *Authority) (*RepairReport, error) {
	prefix, damage, err := ReadFilePrefix(damagedPath, authority)
	if err != nil {
		return nil, err
	}
	healthy, err := ReadFile(healthyPath, authority)
	if err != nil {
		return nil, fmt.Errorf("blockchain: repair donor: %w", err)
	}
	if at, err := healthy.Verify(); err != nil {
		return nil, fmt.Errorf("blockchain: repair donor fails verification at block %d: %w", at, err)
	}
	report := &RepairReport{PrefixBlocks: prefix.Length(), Damage: damage}
	if healthy.Length() < prefix.Length() {
		return nil, fmt.Errorf("blockchain: repair donor has %d blocks, behind the damaged file's %d-block prefix",
			healthy.Length(), prefix.Length())
	}
	for i := 0; i < prefix.Length(); i++ {
		pb, _ := prefix.Block(i)
		hb, _ := healthy.Block(i)
		if pb.Hash() != hb.Hash() {
			return nil, fmt.Errorf("blockchain: repair refused: block %d of the damaged prefix diverges from the donor (different history, not damage)", i)
		}
		if !sigEqual(pb.Sig, hb.Sig) {
			// Identical content, different stored signature bytes: the flip
			// a nil-authority load cannot see. Damage, and repairable.
			if damage == nil {
				damage = &Damage{Frame: i + 1, Offset: -1, Height: uint64(i), Reason: fmt.Sprintf("block %d: stored signature differs from the donor's", i)}
				report.Damage = damage
			}
			break
		}
		report.MatchedBlocks++
	}
	if damage == nil {
		// The file loads clean and byte-matches the donor prefix: nothing
		// to repair.
		report.FinalBlocks = prefix.Length()
		return report, nil
	}
	if err := replaceFile(damagedPath, healthyPath); err != nil {
		return nil, err
	}
	repaired, err := ReadFile(damagedPath, authority)
	if err != nil {
		return nil, fmt.Errorf("blockchain: repaired file does not load: %w", err)
	}
	if at, err := repaired.Verify(); err != nil {
		return nil, fmt.Errorf("blockchain: repaired file fails verification at block %d: %w", at, err)
	}
	report.FinalBlocks = repaired.Length()
	report.RepairedBlocks = report.FinalBlocks - report.MatchedBlocks
	return report, nil
}

// replaceFile atomically replaces dst with a copy of src.
func replaceFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("blockchain: repair copy: %w", err)
	}
	defer in.Close()
	return writeFileAtomic(dst, func(w io.Writer) error {
		_, err := io.Copy(w, in)
		return err
	})
}
