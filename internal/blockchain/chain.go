package blockchain

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"time"
)

// Chain errors.
var (
	ErrEmptyBlock       = errors.New("blockchain: block with no records")
	ErrBadPrevHash      = errors.New("blockchain: previous-hash mismatch")
	ErrBadIndex2        = errors.New("blockchain: non-sequential block index")
	ErrBadMerkleRoot    = errors.New("blockchain: merkle root mismatch")
	ErrBadSignature     = errors.New("blockchain: invalid block signature")
	ErrUnknownAuthority = errors.New("blockchain: producer not in authority set")
	ErrTampered         = errors.New("blockchain: chain integrity violation")
)

// Header is the hashed portion of a block.
type Header struct {
	// Index is the block height (genesis = 0).
	Index uint64
	// PrevHash chains to the previous block ("the hash of a new block is
	// created from the reported data and the hash of the previous
	// block").
	PrevHash Hash
	// MerkleRoot commits to the block's records.
	MerkleRoot Hash
	// Timestamp is the block production time (aggregator clock).
	Timestamp time.Time
	// Producer is the aggregator ID that sealed the block.
	Producer string
}

// appendMarshal appends the canonical header encoding to dst.
func (h Header) appendMarshal(dst []byte) []byte {
	out := appendUvarint(dst, h.Index)
	out = append(out, h.PrevHash[:]...)
	out = append(out, h.MerkleRoot[:]...)
	out = appendVarint(out, h.Timestamp.UnixNano())
	out = appendLenString(out, h.Producer)
	return out
}

// HashHeader returns the block hash (0x02 domain prefix).
func HashHeader(h Header) Hash {
	var scratch [160]byte
	buf := append(scratch[:0], 0x02)
	buf = h.appendMarshal(buf)
	return sha256.Sum256(buf)
}

// Signature is a raw (r, s) ECDSA P-256 signature.
type Signature struct {
	R, S *big.Int
}

// Block is one sealed batch of verified records.
type Block struct {
	Header  Header
	Records []Record
	// Sig is the producer's signature over the header hash.
	Sig Signature
}

// Hash returns the block's header hash.
func (b *Block) Hash() Hash { return HashHeader(b.Header) }

// leafHashes computes the record leaf hashes.
func leafHashes(records []Record) []Hash {
	leaves := make([]Hash, len(records))
	for i, r := range records {
		leaves[i] = HashRecord(r)
	}
	return leaves
}

// Signer produces blocks for one aggregator identity.
type Signer struct {
	id  string
	key *ecdsa.PrivateKey
}

// NewSigner generates a fresh P-256 identity for aggregator id.
func NewSigner(id string) (*Signer, error) {
	if id == "" {
		return nil, errors.New("blockchain: signer requires an ID")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("blockchain: generate key: %w", err)
	}
	return &Signer{id: id, key: key}, nil
}

// ID returns the aggregator identity.
func (s *Signer) ID() string { return s.id }

// Public returns the verification key.
func (s *Signer) Public() *ecdsa.PublicKey { return &s.key.PublicKey }

// Sign signs a header hash.
func (s *Signer) Sign(h Hash) (Signature, error) {
	r, sv, err := ecdsa.Sign(rand.Reader, s.key, h[:])
	if err != nil {
		return Signature{}, fmt.Errorf("blockchain: sign: %w", err)
	}
	return Signature{R: r, S: sv}, nil
}

// Authority is the permissioned set of block producers.
type Authority struct {
	keys map[string]*ecdsa.PublicKey
}

// NewAuthority creates an empty authority set.
func NewAuthority() *Authority {
	return &Authority{keys: make(map[string]*ecdsa.PublicKey)}
}

// Admit registers an aggregator's public key.
func (a *Authority) Admit(id string, key *ecdsa.PublicKey) error {
	if id == "" || key == nil {
		return errors.New("blockchain: admit requires id and key")
	}
	if _, ok := a.keys[id]; ok {
		return fmt.Errorf("blockchain: authority %q already admitted", id)
	}
	a.keys[id] = key
	return nil
}

// Verify checks a producer's signature on a header hash.
func (a *Authority) Verify(producer string, h Hash, sig Signature) error {
	key, ok := a.keys[producer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownAuthority, producer)
	}
	if sig.R == nil || sig.S == nil || !ecdsa.Verify(key, h[:], sig.R, sig.S) {
		return fmt.Errorf("%w: producer %q", ErrBadSignature, producer)
	}
	return nil
}

// Members returns the number of admitted producers.
func (a *Authority) Members() int { return len(a.keys) }

// Chain is the shared permissioned hash chain. Blocks from all aggregators
// are "formed into a common permissioned blockchain"; trust comes from the
// authority set, not consensus.
//
// A chain is in memory, or file-backed once OpenLog gives it a chain file:
// then every accepted block is appended to the file and synced before the
// call that added it returns, and its records are released from memory.
// A file-backed chain keeps headers, signatures and the record count; the
// methods that need records (Block, Verify, ProveRecord, RecordsOf,
// WriteFile) return ErrReleased there, and Head's Records are nil.
type Chain struct {
	blocks    []*Block
	authority *Authority

	// Seal/verify scratch, reused across calls so steady-state sealing
	// hashes without growing the heap. Chain is not safe for concurrent
	// use; callers (aggregator, meterd) serialize access already.
	leafBuf    []Hash
	marshalBuf []byte
	// unsigned counts appended blocks whose deferred signature has not
	// attached yet (see AppendUnsealed).
	unsigned int

	// records counts records across all blocks, released ones included.
	records int
	// log is the chain file of a file-backed chain (nil in memory), and
	// released the number of leading blocks whose records live only there.
	log      *chainLog
	released int
}

// NewChain creates an empty chain governed by authority (may be nil for an
// unauthenticated chain, e.g. quick local analysis of an exported file).
func NewChain(authority *Authority) *Chain {
	return &Chain{authority: authority}
}

// Length returns the number of blocks.
func (c *Chain) Length() int { return len(c.blocks) }

// Head returns the latest block, or nil for an empty chain. It is what the
// next block links to; on a file-backed chain its Records are nil.
func (c *Chain) Head() *Block {
	if len(c.blocks) == 0 {
		return nil
	}
	return c.blocks[len(c.blocks)-1]
}

// Block returns block i. It fails with ErrReleased for a block of a
// file-backed chain: its records are in the file (ReadFile).
func (c *Chain) Block(i int) (*Block, error) {
	if i < 0 || i >= len(c.blocks) {
		return nil, fmt.Errorf("blockchain: block %d of %d", i, len(c.blocks))
	}
	if i < c.released {
		return nil, c.releasedErr()
	}
	return c.blocks[i], nil
}

// Seal builds, signs and appends a block containing records. The Merkle
// root is computed once (see recordsRoot); the signature is
// still verified against the authority set so an unadmitted or forged
// signer cannot extend the chain. A file-backed chain only borrows records:
// they are written to the file within the call, and the returned block's
// Records are nil.
func (c *Chain) Seal(s *Signer, at time.Time, records []Record) (*Block, error) {
	if len(records) == 0 {
		return nil, ErrEmptyBlock
	}
	prev, index := c.nextLink()
	hdr := Header{
		Index:      index,
		PrevHash:   prev,
		MerkleRoot: c.recordsRoot(records, sealWorkers()),
		Timestamp:  at.UTC(),
		Producer:   s.ID(),
	}
	h := HashHeader(hdr)
	sig, err := s.Sign(h)
	if err != nil {
		return nil, err
	}
	if c.authority != nil {
		if err := c.authority.Verify(hdr.Producer, h, sig); err != nil {
			return nil, err
		}
	}
	blk := &Block{Header: hdr, Records: records, Sig: sig}
	if c.log == nil {
		blk.Records = append([]Record(nil), records...)
	}
	if err := c.land([]*Block{blk}, nil); err != nil {
		return nil, err
	}
	return blk, nil
}

// PrepareBlock builds and signs the block that Seal would append next —
// without appending it. The replicated-aggregator tier runs the prepared
// header + signature through consensus so every replica can Import a
// byte-identical block (ECDSA signatures are randomized, so each replica
// signing locally would diverge; signing once and replicating does not).
func (c *Chain) PrepareBlock(s *Signer, at time.Time, records []Record) (*Block, error) {
	prev, index := c.nextLink()
	return c.PrepareBlockAt(s, at, index, prev, append([]Record(nil), records...))
}

// PrepareBlockAt is PrepareBlock with explicit chain linkage: the pipelined
// seal path prepares block k+1 against the hash of the just-prepared (still
// undecided) block k instead of the applied chain head, keeping several
// proposals in flight. Block hashes cover the header only — never the
// signature — so speculative linkage is exact, not a guess. The records
// slice is NOT copied: the pipeline shares one immutable batch between the
// agreement queue, the proposal and every replica's imported block.
func (c *Chain) PrepareBlockAt(s *Signer, at time.Time, index uint64, prev Hash, records []Record) (*Block, error) {
	if len(records) == 0 {
		return nil, ErrEmptyBlock
	}
	hdr := Header{
		Index:      index,
		PrevHash:   prev,
		MerkleRoot: c.recordsRoot(records, sealWorkers()),
		Timestamp:  at.UTC(),
		Producer:   s.ID(),
	}
	sig, err := s.Sign(HashHeader(hdr))
	if err != nil {
		return nil, err
	}
	return &Block{Header: hdr, Records: records, Sig: sig}, nil
}

// AppendUnsealed runs the synchronous hash/Merkle stage of Seal and links
// the block onto the chain with an empty signature — the ECDSA sign stage
// runs later (typically on a SealWorker off the window-close critical path)
// and attaches via AttachSignature. Verify, Export and Import all reject
// unsigned blocks, so a signature cannot be skipped, only deferred. A
// file-backed chain writes only signed blocks and refuses the call.
func (c *Chain) AppendUnsealed(producer string, at time.Time, records []Record) (*Block, error) {
	if producer == "" {
		return nil, errors.New("blockchain: unsealed block requires a producer")
	}
	if c.log != nil {
		return nil, errors.New("blockchain: a file-backed chain does not defer signatures")
	}
	if len(records) == 0 {
		return nil, ErrEmptyBlock
	}
	prev, index := c.nextLink()
	hdr := Header{
		Index:      index,
		PrevHash:   prev,
		MerkleRoot: c.recordsRoot(records, sealWorkers()),
		Timestamp:  at.UTC(),
		Producer:   producer,
	}
	blk := &Block{Header: hdr, Records: append([]Record(nil), records...)}
	c.blocks = append(c.blocks, blk)
	c.records += len(records)
	c.unsigned++
	return blk, nil
}

// AttachSignature completes the deferred sign stage for block index. The
// signature is verified against the authority set before it sticks — a
// forged or unadmitted signature cannot finish a block.
func (c *Chain) AttachSignature(index uint64, sig Signature) error {
	if index >= uint64(len(c.blocks)) {
		return fmt.Errorf("blockchain: attach signature: block %d of %d", index, len(c.blocks))
	}
	b := c.blocks[index]
	if b.Sig.R != nil || b.Sig.S != nil {
		return fmt.Errorf("blockchain: block %d already signed", index)
	}
	if sig.R == nil || sig.S == nil {
		return fmt.Errorf("%w: block %d: nil signature", ErrBadSignature, index)
	}
	if c.authority != nil {
		if err := c.authority.Verify(b.Header.Producer, b.Hash(), sig); err != nil {
			return err
		}
	}
	b.Sig = sig
	c.unsigned--
	return nil
}

// UnsignedBlocks reports how many appended blocks still await their
// deferred signature (0 once the seal pipeline has drained).
func (c *Chain) UnsignedBlocks() int { return c.unsigned }

// validateLink runs the structural (signature-free) acceptance checks for a
// block expected at (wantPrev, wantIndex): emptiness, chain linkage, index
// and Merkle root. Single-block append and ImportBatch share it, so a rule
// added here applies to both import paths.
func (c *Chain) validateLink(b *Block, wantPrev Hash, wantIndex uint64, workers int) error {
	if len(b.Records) == 0 {
		return ErrEmptyBlock
	}
	if b.Header.PrevHash != wantPrev {
		return ErrBadPrevHash
	}
	if b.Header.Index != wantIndex {
		return fmt.Errorf("%w: got %d, want %d", ErrBadIndex2, b.Header.Index, wantIndex)
	}
	if b.Header.MerkleRoot != c.recordsRoot(b.Records, workers) {
		return ErrBadMerkleRoot
	}
	return nil
}

// nextLink returns the (prevHash, index) position the next appended block
// must occupy.
func (c *Chain) nextLink() (Hash, uint64) {
	if head := c.Head(); head != nil {
		return head.Hash(), head.Header.Index + 1
	}
	return Hash{}, 0
}

// append validates and links an externally produced block, hashing its
// records on up to workers goroutines (see recordsRoot).
func (c *Chain) append(b *Block, workers int) error {
	wantPrev, wantIndex := c.nextLink()
	if err := c.validateLink(b, wantPrev, wantIndex, workers); err != nil {
		return err
	}
	if c.authority != nil {
		if err := c.authority.Verify(b.Header.Producer, b.Hash(), b.Sig); err != nil {
			return err
		}
	}
	return c.land([]*Block{b}, nil)
}

// Import appends an externally produced block (e.g. received from another
// aggregator over the backhaul) after full validation.
func (c *Chain) Import(b *Block) error { return c.append(b, sealWorkers()) }

// ImportBatch appends a group of externally produced blocks atomically
// (group commit): first a structural pass links the whole group (emptiness,
// prev-hash, index, Merkle root), then every producer signature is verified
// in one batched pass, and only then does the group land on the chain —
// all-or-nothing, so a bad block in the middle cannot leave a half-imported
// group behind. On a file-backed chain the group is one append and one sync.
// The pipelined seal path uses it to commit a drained window of decided
// blocks in one call.
func (c *Chain) ImportBatch(blocks []*Block) error {
	if err := c.checkBatch(blocks); err != nil {
		return err
	}
	return c.land(blocks, nil)
}

// checkBatch runs every ImportBatch check on blocks without landing them.
func (c *Chain) checkBatch(blocks []*Block) error {
	if len(blocks) == 0 {
		return nil
	}
	wantPrev, wantIndex := c.nextLink()
	for i, b := range blocks {
		if err := c.validateLink(b, wantPrev, wantIndex, sealWorkers()); err != nil {
			return fmt.Errorf("blockchain: import batch block %d: %w", i, err)
		}
		wantPrev = b.Hash()
		wantIndex++
	}
	if c.authority != nil {
		for i, b := range blocks {
			if err := c.authority.Verify(b.Header.Producer, b.Hash(), b.Sig); err != nil {
				return fmt.Errorf("blockchain: import batch block %d: %w", i, err)
			}
		}
	}
	return nil
}

// Verify re-validates the entire chain: linkage, indices, Merkle roots and
// signatures. It returns the height of the first bad block with
// ErrTampered, or -1 and nil when intact. A file-backed chain returns -1
// and ErrReleased: verify its file (ReadFile, then Verify).
func (c *Chain) Verify() (int, error) {
	if c.released > 0 {
		return -1, c.releasedErr()
	}
	var prev Hash
	for i, b := range c.blocks {
		if b.Header.PrevHash != prev {
			return i, fmt.Errorf("%w: block %d: %v", ErrTampered, i, ErrBadPrevHash)
		}
		if b.Header.Index != uint64(i) {
			return i, fmt.Errorf("%w: block %d: %v", ErrTampered, i, ErrBadIndex2)
		}
		if b.Header.MerkleRoot != c.recordsRoot(b.Records, auditWorkers()) {
			return i, fmt.Errorf("%w: block %d: %v", ErrTampered, i, ErrBadMerkleRoot)
		}
		if c.authority != nil {
			if err := c.authority.Verify(b.Header.Producer, b.Hash(), b.Sig); err != nil {
				return i, fmt.Errorf("%w: block %d: %v", ErrTampered, i, err)
			}
		}
		prev = b.Hash()
	}
	return -1, nil
}

// ProveRecord builds an inclusion proof for record idx of block blockIdx.
func (c *Chain) ProveRecord(blockIdx, idx int) (MerkleProof, error) {
	b, err := c.Block(blockIdx)
	if err != nil {
		return MerkleProof{}, err
	}
	return BuildProof(leafHashes(b.Records), idx)
}

// RecordsOf returns every stored record for a device, oldest first. A
// file-backed chain returns ErrReleased: read its file (ReadFile).
func (c *Chain) RecordsOf(deviceID string) ([]Record, error) {
	if c.released > 0 {
		return nil, c.releasedErr()
	}
	var out []Record
	for _, b := range c.blocks {
		for _, r := range b.Records {
			if r.DeviceID == deviceID {
				out = append(out, r)
			}
		}
	}
	return out, nil
}

// TotalRecords counts records across all blocks, on a file-backed chain
// those released to the file too.
func (c *Chain) TotalRecords() int { return c.records }
