package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"decentmeter/internal/blockchain"
	"decentmeter/internal/store"
)

// auditResult is the ledger audit of one daemon run. Counts are in
// measurements.
type auditResult struct {
	Records int // records on the verified chain
	Blocks  int
	// Missing counts acknowledged measurements absent from the chain;
	// Duplicated counts (device, seq) pairs sealed more than once;
	// Unacked counts records on the chain that no acknowledgement the
	// generator saw covers (sealed, but the answer was lost).
	Missing    int
	Duplicated int
	Unacked    int
	// Problems lists every other defect: a chain that does not verify, a
	// replica file that differs, a journal that does not recover.
	Problems []string
}

func (a auditResult) failed() int { return a.Missing + a.Duplicated }

// auditChain compares the chain against what the devices were told: a
// device acknowledged up to sequence number n must find 1..n on the chain,
// each once. acked maps device id to that n. meterd seals whatever it
// acknowledged (drop-oldest beyond its backlog cap excepted, which is what
// Missing catches), and a device's sequence numbers are dense from 1, so
// one bitmap per device holds the set.
func auditChain(chain *blockchain.Chain, acked map[string]uint64) auditResult {
	res := auditResult{Blocks: chain.Length()}
	seen := make(map[string][]bool, len(acked))
	for i := 0; i < chain.Length(); i++ {
		blk, err := chain.Block(i)
		if err != nil {
			res.Problems = append(res.Problems, fmt.Sprintf("block %d: %v", i, err))
			continue
		}
		for _, r := range blk.Records {
			res.Records++
			limit, known := acked[r.DeviceID]
			if !known {
				res.Problems = append(res.Problems, fmt.Sprintf("record of unknown device %q", r.DeviceID))
				continue
			}
			if r.Seq == 0 || r.Seq > limit {
				res.Unacked++
				continue
			}
			bits := seen[r.DeviceID]
			if bits == nil {
				bits = make([]bool, limit+1)
				seen[r.DeviceID] = bits
			}
			if bits[r.Seq] {
				res.Duplicated++
			}
			bits[r.Seq] = true
		}
	}
	for id, limit := range acked {
		bits := seen[id]
		if bits == nil {
			res.Missing += int(limit)
			continue
		}
		for seq := uint64(1); seq <= limit; seq++ {
			if !bits[seq] {
				res.Missing++
			}
		}
	}
	return res
}

// auditReplicas checks what a replicated run leaves beside the primary
// chain file: every replica wrote the same bytes, and the session journal
// recovers.
func auditReplicas(d *daemon, w workload, dir string) []string {
	var problems []string
	primary, err := os.ReadFile(d.chainPath)
	if err != nil {
		return []string{err.Error()}
	}
	for k := 1; k < w.replicas; k++ {
		path := fmt.Sprintf("%s.r%d", d.chainPath, k)
		replica, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, err.Error())
		} else if !bytes.Equal(primary, replica) {
			problems = append(problems, path+" differs from the primary chain file")
		}
	}
	if _, err := store.RecoverWAL[json.RawMessage](filepath.Join(dir, "sess.wal")); err != nil {
		problems = append(problems, "session journal: "+err.Error())
	}
	return problems
}

func totalAcked(acked map[string]uint64) int {
	n := 0
	for _, limit := range acked {
		n += int(limit)
	}
	return n
}
