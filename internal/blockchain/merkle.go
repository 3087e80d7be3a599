package blockchain

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// interiorHash combines two child hashes with a 0x01 domain prefix. The
// fixed-size stack buffer keeps interior hashing allocation-free on the
// seal path.
func interiorHash(left, right Hash) Hash {
	var buf [1 + 2*sha256.Size]byte
	buf[0] = 0x01
	copy(buf[1:1+sha256.Size], left[:])
	copy(buf[1+sha256.Size:], right[:])
	return sha256.Sum256(buf[:])
}

// MerkleRoot computes the root over leaf hashes. Odd nodes are promoted
// (not duplicated — duplication permits the classic CVE-2012-2459 style
// mutation). An empty set has the zero root.
func MerkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	level := make([]Hash, len(leaves))
	copy(level, leaves)
	return merkleRootInPlace(level)
}

// merkleRootInPlace computes the root destructively, folding each level
// into the front of the slice instead of allocating per-level buffers.
// leaves must be non-empty and is clobbered.
func merkleRootInPlace(level []Hash) Hash {
	for len(level) > 1 {
		n := 0
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				level[n] = interiorHash(level[i], level[i+1])
			} else {
				level[n] = level[i] // odd node promoted
			}
			n++
		}
		level = level[:n]
	}
	return level[0]
}

// merkleChunk is the unit of parallel root computation. It is a power of
// two, so chunk j's own promote-odd root is exactly node j of level 12 of
// the whole tree (every level below pairs nodes inside one chunk, and a
// short last chunk promotes the same way alone as it does in place), and
// folding the chunk roots finishes the same tree. 4096 leaves are ~1 ms of
// hashing: long enough to amortise a goroutine hand-off, short enough that
// a 40 k-record block splits evenly over the processors.
const merkleChunk = 1 << 12

// chunkRoot hashes records into leaves (same length, at most merkleChunk)
// and folds them; the chunk's root is left in leaves[0]. scratch is the
// marshalling buffer, returned possibly grown.
func chunkRoot(leaves []Hash, records []Record, scratch []byte) []byte {
	for i := range records {
		leaves[i], scratch = hashRecordInto(records[i], scratch[:0])
	}
	leaves[0] = merkleRootInPlace(leaves)
	return scratch
}

// auditWorkers is the hashing width of a caller that has the machine to
// itself: loading a chain file and Verify, which is what an auditor runs.
func auditWorkers() int { return runtime.GOMAXPROCS(0) }

// sealWorkers is the hashing width of a caller inside a running aggregator
// (Seal, PrepareBlockAt, AppendUnsealed, Import, ImportBatch): one
// processor stays out of it. A daemon sealing a block is also answering
// devices, and a ready network goroutine is only found promptly by a
// processor that is idle: with every processor hashing, the runtime notices
// readable sockets on its 10 ms background poll. Measured on the 2-CPU
// reference box with every processor hashing the live roots: tail_flush ack
// p90 +7 % and its run-to-run spread 16 times the sequential path's.
func sealWorkers() int { return max(1, runtime.GOMAXPROCS(0)-1) }

// recordsRoot computes the Merkle root over records in the chain's scratch
// buffers: the one function Seal, PrepareBlockAt, AppendUnsealed,
// checkContent and Verify take their root from. Blocks of more than one
// chunk spread their chunks over up to workers goroutines (the caller is
// one of them; see auditWorkers and sealWorkers); the root is the same bit
// for bit at any width.
func (c *Chain) recordsRoot(records []Record, workers int) Hash {
	n := len(records)
	if n == 0 {
		return Hash{}
	}
	if cap(c.leafBuf) < n {
		c.leafBuf = make([]Hash, n)
	}
	leaves := c.leafBuf[:n]
	if n <= merkleChunk {
		c.marshalBuf = chunkRoot(leaves, records, c.marshalBuf)
		return leaves[0]
	}
	chunks := (n + merkleChunk - 1) / merkleChunk
	c.marshalBuf = chunkRoots(leaves, records, chunks, min(workers, chunks), c.marshalBuf)
	for j := 1; j < chunks; j++ {
		leaves[j] = leaves[j*merkleChunk]
	}
	return merkleRootInPlace(leaves[:chunks])
}

// chunkRoots leaves the root of chunk j in leaves[j*merkleChunk] for every
// chunk. Workers claim chunks from a shared counter; each has its own
// marshalling scratch and writes only its own chunk of leaves.
func chunkRoots(leaves []Hash, records []Record, chunks, workers int, scratch []byte) []byte {
	var next atomic.Int64
	work := func(scratch []byte) []byte {
		for {
			j := int(next.Add(1)) - 1
			if j >= chunks {
				return scratch
			}
			lo, hi := j*merkleChunk, min((j+1)*merkleChunk, len(records))
			scratch = chunkRoot(leaves[lo:hi], records[lo:hi], scratch)
		}
	}
	var wg sync.WaitGroup
	for w := workers - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(make([]byte, 0, 128))
		}()
	}
	scratch = work(scratch)
	wg.Wait()
	return scratch
}

// ProofStep is one sibling on the path from a leaf to the root.
type ProofStep struct {
	// Sibling is the neighbouring hash at this level.
	Sibling Hash
	// Left is true when the sibling is the left child.
	Left bool
}

// MerkleProof is an inclusion proof for one leaf.
type MerkleProof struct {
	// Index is the leaf position.
	Index int
	// Steps lead from the leaf to the root.
	Steps []ProofStep
}

// ErrBadIndex is returned for out-of-range proof requests.
var ErrBadIndex = errors.New("blockchain: leaf index out of range")

// BuildProof constructs the inclusion proof for leaf idx.
func BuildProof(leaves []Hash, idx int) (MerkleProof, error) {
	if idx < 0 || idx >= len(leaves) {
		return MerkleProof{}, fmt.Errorf("%w: %d of %d", ErrBadIndex, idx, len(leaves))
	}
	proof := MerkleProof{Index: idx}
	level := make([]Hash, len(leaves))
	copy(level, leaves)
	pos := idx
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				if i == pos || i+1 == pos {
					if i == pos {
						proof.Steps = append(proof.Steps, ProofStep{Sibling: level[i+1], Left: false})
					} else {
						proof.Steps = append(proof.Steps, ProofStep{Sibling: level[i], Left: true})
					}
				}
				next = append(next, interiorHash(level[i], level[i+1]))
			} else {
				// Promoted node: no sibling at this level.
				next = append(next, level[i])
			}
		}
		pos /= 2
		level = next
	}
	return proof, nil
}

// VerifyProof checks that leaf at the proof's position hashes up to root.
func VerifyProof(leaf Hash, proof MerkleProof, root Hash) bool {
	cur := leaf
	pos := proof.Index
	for _, step := range proof.Steps {
		if step.Left {
			cur = interiorHash(step.Sibling, cur)
		} else {
			cur = interiorHash(cur, step.Sibling)
		}
		pos /= 2
	}
	return cur == root
}
