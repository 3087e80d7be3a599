package blockchain

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// ErrReleased is returned by the methods that need the records of a
// file-backed chain: they are in its file, not in memory.
var ErrReleased = errors.New("blockchain: records released to the chain file")

// chainLog is the chain file of a file-backed chain, open for appending.
type chainLog struct {
	f    *os.File // nil once closed
	path string
	// size is the length of the synced file: the next frame record goes
	// there, and a failed append is cut back to it.
	size int64
	// buf is the frame-record encoding scratch, kept between appends.
	buf []byte
	// onDurable, when set, runs after every sync.
	onDurable func(blocks, records int)
}

// maxKeptBuf is the largest encoding scratch kept between appends: a rare
// huge block (a drained backlog of 2^18 records) does not pin its frames.
const maxKeptBuf = 4 << 20

// OpenLog makes c file-backed: path is created (it must not exist) holding
// the file header and c's blocks so far, and from then on every block c
// accepts is appended to it and synced before Seal, Import or ImportBatch
// returns. Once durable, a block's records are released from memory. The
// file is the same block log WriteFile writes.
func (c *Chain) OpenLog(path string) error {
	if c.log != nil {
		return fmt.Errorf("blockchain: chain already appends to %s", c.log.path)
	}
	if c.unsigned > 0 {
		return fmt.Errorf("blockchain: %d blocks await their signature", c.unsigned)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("blockchain: open log: %w", err)
	}
	l := &chainLog{f: f, path: path}
	err = l.commit(appendFrameRecords([]byte(fileHeader), c.blocks))
	if err == nil {
		err = syncDir(filepath.Dir(path))
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	c.log = l
	c.release()
	return nil
}

// syncDir makes a file created in dir durable as a directory entry.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("blockchain: open log: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("blockchain: open log: sync %s: %w", dir, err)
	}
	return nil
}

// OnDurable sets fn to run after every sync of a file-backed chain's file,
// with the chain's length and record count, which are then durable.
func (c *Chain) OnDurable(fn func(blocks, records int)) {
	if c.log != nil {
		c.log.onDurable = fn
	}
}

// CloseLog closes a file-backed chain's file. Every block was synced as it
// landed, so there is nothing left to write; the chain accepts no further
// block. It is a no-op on an in-memory chain.
func (c *Chain) CloseLog() error {
	if c.log == nil || c.log.f == nil {
		return nil
	}
	err := c.log.f.Close()
	c.log.f = nil
	return err
}

// commit appends frames at the synced end of the file and syncs. A failed
// write or sync is cut back off, so the file keeps exactly what was
// durable before.
func (l *chainLog) commit(frames []byte) error {
	if l.f == nil {
		return fmt.Errorf("blockchain: append to %s: file closed", l.path)
	}
	_, err := l.f.WriteAt(frames, l.size)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.f.Truncate(l.size) // best effort: the next append overwrites from l.size anyway
		return fmt.Errorf("blockchain: append to %s: %w", l.path, err)
	}
	l.size += int64(len(frames))
	return nil
}

// encode encodes blocks into the log's scratch.
func (l *chainLog) encode(blocks []*Block) []byte {
	if cap(l.buf) > maxKeptBuf {
		l.buf = nil
	}
	l.buf = appendFrameRecords(l.buf[:0], blocks)
	return l.buf
}

// land links blocks that passed every check onto the chain. A file-backed
// chain first appends and syncs them — frames is their encoding, or nil to
// encode here — and a failed write leaves chain and file as they were.
// Durable blocks then give up their records.
func (c *Chain) land(blocks []*Block, frames []byte) error {
	if len(blocks) == 0 {
		return nil
	}
	if c.log != nil {
		if frames == nil {
			frames = c.log.encode(blocks)
		}
		if err := c.log.commit(frames); err != nil {
			return err
		}
	}
	for _, b := range blocks {
		c.records += len(b.Records)
	}
	c.blocks = append(c.blocks, blocks...)
	if c.log != nil {
		c.release()
		if c.log.onDurable != nil {
			c.log.onDurable(len(c.blocks), c.records)
		}
	}
	return nil
}

// release drops the records of every block of a file-backed chain.
func (c *Chain) release() {
	for _, b := range c.blocks[c.released:] {
		b.Records = nil
	}
	c.released = len(c.blocks)
}

func (c *Chain) releasedErr() error {
	return fmt.Errorf("%w %s (read it with ReadFile)", ErrReleased, c.log.path)
}

// ImportBatches imports groups[k] onto chains[k] for every k, as
// ImportBatch would, and returns each chain's error. It is the group commit
// of replicas that decided the same blocks. A group that is the same data
// as an earlier one (sameBlocks: equal headers and signatures over the same
// record slices, as consensus replicas decide them) is checked and encoded
// once: its Merkle roots on the first chain they pass on, its signatures on
// the first chain of each *Authority they pass on, and its encoding is
// appended to each file-backed chain that received it. The checks on each
// chain's state (prev-hash link, index) run on every chain, and a group
// that differs in any way is checked in full. Nothing is written before
// its checks pass. Each chain must own its Block values; they may share
// record slices.
func ImportBatches(chains []*Chain, groups [][]*Block) []error {
	errs := make([]error, len(chains))
	// shared[k] is what checking and encoding k's group established: one
	// value for all chains whose groups are the same data.
	shared := make([]*sharedGroup, len(chains))
	for k := range chains {
		shared[k] = new(sharedGroup)
		for j := range k {
			if sameBlocks(groups[j], groups[k]) {
				shared[k] = shared[j]
				break
			}
		}
	}
	// All groups are encoded before any lands: landing releases records.
	for k, c := range chains {
		g := shared[k]
		if errs[k] = c.checkBatch(groups[k], g); errs[k] == nil && c.log != nil && g.frames == nil {
			g.frames = c.log.encode(groups[k])
		}
	}
	for k, c := range chains {
		if errs[k] == nil {
			errs[k] = c.land(groups[k], shared[k].frames)
		}
	}
	return errs
}

// sameBlocks reports whether two groups are the same data: the same headers
// (by hash) and signatures over the very same record slices. Such groups
// encode to the same bytes and pass or fail the same checks on them.
func sameBlocks(a, b []*Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ra, rb := a[i].Records, b[i].Records
		if len(ra) != len(rb) || len(ra) == 0 || &ra[0] != &rb[0] ||
			a[i].Hash() != b[i].Hash() || !sigEqual(a[i].Sig, b[i].Sig) {
			return false
		}
	}
	return true
}
