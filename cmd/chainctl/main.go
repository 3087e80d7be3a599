// Command chainctl inspects and verifies metering blockchain files (the
// binary block log meterd appends to block by block, and
// blockchain.WriteFile writes for cmd/experiments). The files are not text: show and device are how a person
// reads one.
//
//	chainctl verify  agg1.chain             # full integrity check
//	chainctl show    agg1.chain             # block-by-block summary
//	chainctl device  agg1.chain device1     # one device's stored records
//	chainctl tamper  agg1.chain             # corrupt a record, show detection
//	chainctl anchors anchor.chain [nb.chain ...]  # federation anchor audit
//	chainctl repair  damaged.chain healthy.chain [anchor.chain]
//
// verify and show skip signature checks (the authority's public keys live
// with the aggregators); the hash chain and Merkle roots are still fully
// validated.
//
// repair rebuilds a damaged chain file — truncated mid-frame, bit-flipped
// header/record bytes, a duplicated tail — from a healthy peer's export of
// the same chain. The damaged file's surviving valid prefix is located (the
// damage is reported by frame number and byte offset),
// byte-compared against the donor (a divergent history is refused: that is
// disagreement, not damage), and the donor's verified content replaces the
// file atomically. With an anchor chain as the third argument the repaired
// chain is additionally checked for inclusion in the federation's
// super-chain (the cluster ID is the damaged file's name without the
// extension, e.g. nb03.chain -> nb03).
//
// anchors reads a regional super-chain written by `experiments -federation
// -fed-export` and lists every cluster commitment; each additional
// neighborhood chain file (its cluster ID is the file name without the
// extension, e.g. nb03.chain -> nb03) is verified for inclusion: the
// anchored heights and block roots must match the chain's own headers and
// the latest anchor must cover the chain's head. Any mismatch — a diverged
// root, a truncated chain, an unanchored head — exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/units"
)

func main() {
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
	}
	cmd, path := args[0], args[1]
	switch cmd {
	case "verify":
		run(verify(path))
	case "show":
		run(show(path))
	case "device":
		if len(args) < 3 {
			usage()
		}
		run(device(path, args[2]))
	case "tamper":
		run(tamper(path))
	case "anchors":
		run(anchors(path, args[2:]))
	case "repair":
		if len(args) < 3 {
			usage()
		}
		anchorPath := ""
		if len(args) > 3 {
			anchorPath = args[3]
		}
		run(repair(path, args[2], anchorPath))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: chainctl verify|show|tamper <chain-file> | chainctl device <chain-file> <device-id> | chainctl anchors <anchor-chain> [cluster-chain ...] | chainctl repair <damaged> <healthy> [anchor-chain]")
	os.Exit(2)
}

func run(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "chainctl:", err)
		os.Exit(1)
	}
}

func verify(path string) error {
	c, err := blockchain.ReadFile(path, nil)
	if err != nil {
		return err
	}
	bad, err := c.Verify()
	if err != nil {
		fmt.Printf("TAMPERED at block %d: %v\n", bad, err)
		os.Exit(1)
	}
	fmt.Printf("OK: %d blocks, %d records, chain intact\n", c.Length(), c.TotalRecords())
	return nil
}

func show(path string) error {
	c, err := blockchain.ReadFile(path, nil)
	if err != nil {
		return err
	}
	fmt.Printf("%-5s %-10s %-12s %-22s %-8s %s\n", "idx", "hash", "producer", "sealed", "records", "energy")
	for i := 0; i < c.Length(); i++ {
		b, err := c.Block(i)
		if err != nil {
			return err
		}
		var e units.Energy
		for _, r := range b.Records {
			e += r.Energy
		}
		fmt.Printf("%-5d %-10s %-12s %-22s %-8d %s\n",
			b.Header.Index, b.Hash().String(), b.Header.Producer,
			b.Header.Timestamp.Format("2006-01-02T15:04:05.000"),
			len(b.Records), e)
	}
	return nil
}

func device(path, id string) error {
	c, err := blockchain.ReadFile(path, nil)
	if err != nil {
		return err
	}
	recs, err := c.RecordsOf(id)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("no records for device %q", id)
	}
	var total units.Energy
	fmt.Printf("%-8s %-24s %-10s %-10s %-6s %s\n", "seq", "timestamp", "current", "energy", "via", "flags")
	for _, r := range recs {
		flags := ""
		if r.Buffered {
			flags = "buffered"
		}
		fmt.Printf("%-8d %-24s %-10s %-10s %-6s %s\n",
			r.Seq, r.Timestamp.Format("15:04:05.000"), r.Current, r.Energy, r.ReportedVia, flags)
		total += r.Energy
	}
	fmt.Printf("total: %d records, %s\n", len(recs), total)
	return nil
}

// anchors verifies a federation export: the super-chain's own integrity,
// a listing of every anchor record, and — for each neighborhood chain file
// given — root inclusion up to the chain's head.
func anchors(anchorPath string, clusterPaths []string) error {
	ac, err := blockchain.ReadFile(anchorPath, nil)
	if err != nil {
		return err
	}
	if _, err := ac.Verify(); err != nil {
		return fmt.Errorf("anchor chain: %w", err)
	}
	recs, err := blockchain.Anchors(ac)
	if err != nil {
		return err
	}
	fmt.Printf("anchor chain: %d blocks, %d commitments\n", ac.Length(), len(recs))
	fmt.Printf("%-8s %-8s %-22s %s\n", "cluster", "height", "sealed", "root")
	for _, a := range recs {
		fmt.Printf("%-8s %-8d %-22s %s\n",
			a.ClusterID, a.Height, a.SealedAt.Format("2006-01-02T15:04:05.000"), a.Root)
	}
	failed := 0
	for _, p := range clusterPaths {
		id := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		nc, err := blockchain.ReadFile(p, nil)
		if err != nil {
			return err
		}
		if bad, err := nc.Verify(); err != nil {
			fmt.Printf("%s: TAMPERED at block %d: %v\n", id, bad, err)
			failed++
			continue
		}
		if err := blockchain.VerifyAnchorInclusion(ac, id, nc); err != nil {
			fmt.Printf("%s: NOT ANCHORED: %v\n", id, err)
			failed++
			continue
		}
		fmt.Printf("%s: OK — %d blocks, %d records, head included in anchor chain\n",
			id, nc.Length(), nc.TotalRecords())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d neighborhood chains failed anchor verification", failed, len(clusterPaths))
	}
	return nil
}

// repair rebuilds damagedPath from healthyPath (see blockchain.RepairFile)
// and, when anchorPath is given, re-checks the repaired chain's inclusion
// in the federation super-chain.
func repair(damagedPath, healthyPath, anchorPath string) error {
	prefix, damage, err := blockchain.ReadFilePrefix(damagedPath, nil)
	if err != nil {
		return err
	}
	if damage != nil {
		fmt.Printf("damage: %s\n", damage)
	}
	fmt.Printf("valid prefix: %d blocks\n", prefix.Length())
	rep, err := blockchain.RepairFile(damagedPath, healthyPath, nil)
	if err != nil {
		return err
	}
	if rep.RepairedBlocks == 0 && rep.Damage == nil {
		fmt.Printf("OK: file already clean (%d blocks), nothing repaired\n", rep.FinalBlocks)
	} else {
		fmt.Printf("repaired: %d blocks kept, %d restored from donor, %d total (verified)\n",
			rep.MatchedBlocks, rep.RepairedBlocks, rep.FinalBlocks)
	}
	if anchorPath == "" {
		return nil
	}
	ac, err := blockchain.ReadFile(anchorPath, nil)
	if err != nil {
		return err
	}
	if _, err := ac.Verify(); err != nil {
		return fmt.Errorf("anchor chain: %w", err)
	}
	id := strings.TrimSuffix(filepath.Base(damagedPath), filepath.Ext(damagedPath))
	repaired, err := blockchain.ReadFile(damagedPath, nil)
	if err != nil {
		return err
	}
	if err := blockchain.VerifyAnchorInclusion(ac, id, repaired); err != nil {
		return fmt.Errorf("repaired chain not anchored: %w", err)
	}
	fmt.Printf("anchor inclusion: OK (%s head covered by %s)\n", id, filepath.Base(anchorPath))
	return nil
}

func tamper(path string) error {
	c, err := blockchain.ReadFile(path, nil)
	if err != nil {
		return err
	}
	if c.Length() == 0 {
		return fmt.Errorf("empty chain")
	}
	b, err := c.Block(0)
	if err != nil {
		return err
	}
	if len(b.Records) == 0 {
		return fmt.Errorf("block 0 has no records")
	}
	fmt.Printf("before: record 0 of block 0 reports %s\n", b.Records[0].Energy)
	b.Records[0].Energy /= 2
	fmt.Printf("tampered: halved to %s (in memory)\n", b.Records[0].Energy)
	bad, err := c.Verify()
	if err == nil {
		return fmt.Errorf("tamper NOT detected — this is a bug")
	}
	fmt.Printf("detected: %v (block %d)\n", err, bad)
	fmt.Println("the on-disk file is unchanged")
	return nil
}
