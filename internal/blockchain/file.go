package blockchain

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"time"
)

// The chain file is a binary, append-ready block log:
//
//	file  = magic version { frame-record }
//	frame-record = uvarint(len(frame)) frame crc32c(frame)
//	frame = header signature uvarint(nRecords) { uvarint(len(record)) record }
//
// header is Header.appendMarshal — the bytes the block hash covers — and
// record is Record.AppendMarshal — the bytes the Merkle leaf covers — so the
// file stores exactly what is hashed, with no second encoding on top.
// signature is R then S, each a length-prefixed big-endian integer (length 0
// for a block still awaiting its deferred signature). The CRC (Castagnoli,
// big-endian) tells disk damage from a well-formed frame whose content fails
// validation; it is an addition to, never a replacement for, the hash checks
// Import runs on every loaded block.
const (
	fileMagic   = "DMCHAIN"
	fileVersion = 1
	fileHeader  = fileMagic + string(rune(fileVersion))

	// maxSigIntLen bounds one signature integer: P-256 r and s fit 32 bytes.
	maxSigIntLen = 32
	// minRecordLen is the shortest frame entry a record can occupy: its
	// length prefix, three empty strings, seq, five varints and the flag
	// byte. It bounds a frame's declared record count before the record
	// slice is allocated.
	minRecordLen = 11
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// interner keeps one copy of every distinct identifier string seen during a
// load: a chain names a few thousand devices and a handful of aggregators
// millions of times. A nil interner just converts.
type interner map[string]string

// str returns b as a string: hint itself when that is what b spells (the
// previous record's identifier, nearly always), else the interned copy.
// Neither the comparison nor the map index allocates.
func (in interner) str(b []byte, hint string) string {
	if string(b) == hint {
		return hint
	}
	if in == nil {
		return string(b)
	}
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

func appendSigInt(dst []byte, x *big.Int) []byte {
	if x == nil {
		return append(dst, 0)
	}
	b := x.Bytes()
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendHeaderSig appends the binary header+signature encoding shared by
// the chain file's frames and the consensus seal-meta blob.
func appendHeaderSig(dst []byte, h Header, sig Signature) []byte {
	dst = h.appendMarshal(dst)
	dst = appendSigInt(dst, sig.R)
	return appendSigInt(dst, sig.S)
}

func readSigInt(b []byte) (*big.Int, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > maxSigIntLen || uint64(len(rest)) < n {
		return nil, nil, fmt.Errorf("bad length %d", n)
	}
	if n == 0 {
		return nil, rest, nil
	}
	if rest[0] == 0 {
		return nil, nil, errors.New("leading zero byte")
	}
	return new(big.Int).SetBytes(rest[:n]), rest[n:], nil
}

// readHeaderSig parses what appendHeaderSig wrote and returns the bytes
// after it.
func readHeaderSig(b []byte, in interner) (Header, Signature, []byte, error) {
	var h Header
	var sig Signature
	var err error
	if h.Index, b, err = readUvarint(b); err != nil {
		return h, sig, nil, fmt.Errorf("header index: %w", err)
	}
	if len(b) < 2*len(h.PrevHash) {
		return h, sig, nil, errors.New("header truncated inside the hashes")
	}
	b = b[copy(h.PrevHash[:], b):]
	b = b[copy(h.MerkleRoot[:], b):]
	var ts int64
	if ts, b, err = readVarint(b); err != nil {
		return h, sig, nil, fmt.Errorf("header timestamp: %w", err)
	}
	h.Timestamp = time.Unix(0, ts).UTC()
	if h.Producer, b, err = readLenString(b, in, ""); err != nil {
		return h, sig, nil, fmt.Errorf("header producer: %w", err)
	}
	if sig.R, b, err = readSigInt(b); err != nil {
		return h, sig, nil, fmt.Errorf("signature r: %w", err)
	}
	if sig.S, b, err = readSigInt(b); err != nil {
		return h, sig, nil, fmt.Errorf("signature s: %w", err)
	}
	return h, sig, b, nil
}

// appendFrame appends one block's frame (without length prefix or CRC).
func appendFrame(dst []byte, b *Block) []byte {
	dst = appendHeaderSig(dst, b.Header, b.Sig)
	dst = appendUvarint(dst, uint64(len(b.Records)))
	for i := range b.Records {
		// The record length is not known until it is marshalled: leave one
		// byte for it, and shift only the rare record over 127 bytes.
		at := len(dst)
		dst = b.Records[i].AppendMarshal(append(dst, 0))
		n := len(dst) - at - 1
		if n < 0x80 {
			dst[at] = byte(n)
			continue
		}
		var lp [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(lp[:], uint64(n))
		dst = append(dst, lp[:k-1]...)
		copy(dst[at+k:], dst[at+1:at+1+n])
		copy(dst[at:], lp[:k])
	}
	return dst
}

// decodeFrame decodes one frame into a block. It validates only the
// encoding; linkage, Merkle root and signature checks happen when the block
// is imported onto a chain. Records decode in place into one slice sized
// from the declared count, which is first bounded by the bytes present.
func decodeFrame(frame []byte, in interner) (*Block, error) {
	hdr, sig, b, err := readHeaderSig(frame, in)
	if err != nil {
		return nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("record count: %w", err)
	}
	if n > uint64(len(b))/minRecordLen {
		return nil, fmt.Errorf("record count %d exceeds what %d bytes can hold", n, len(b))
	}
	blk := &Block{Header: hdr, Sig: sig, Records: make([]Record, n)}
	for ri := range blk.Records {
		var size uint64
		if size, b, err = readUvarint(b); err != nil {
			return nil, fmt.Errorf("record %d length: %w", ri, err)
		}
		if size > uint64(len(b)) {
			return nil, fmt.Errorf("record %d: declared %d bytes, %d left in frame", ri, size, len(b))
		}
		if err := unmarshalRecordInto(&blk.Records[ri], b[:size], in, &blk.Records[max(ri-1, 0)]); err != nil {
			return nil, fmt.Errorf("record %d: %w", ri, err)
		}
		b = b[size:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d bytes after the last record", len(b))
	}
	return blk, nil
}

// appendFrameRecords appends each block as one frame record:
// uvarint(len(frame)) frame crc32c(frame). The chain file's appender and
// WriteFile both encode through it.
func appendFrameRecords(dst []byte, blocks []*Block) []byte {
	const room = binary.MaxVarintLen64
	var lp [room]byte
	for _, b := range blocks {
		// The frame is built after room for the longest length prefix;
		// the gap left by the actual prefix is then closed.
		at := len(dst)
		dst = appendFrame(append(dst, lp[:]...), b)
		n := len(dst) - at - room
		k := binary.PutUvarint(lp[:], uint64(n))
		copy(dst[at+k:], dst[at+room:])
		copy(dst[at:], lp[:k])
		dst = dst[:at+k+n]
		dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[at+k:], castagnoli))
	}
	return dst
}

// WriteFile persists the chain as a binary block log (see the format above):
// a temp file gets the file header and every block appended, one frame
// record at a time, and is synced and renamed over path, so a crash
// mid-write leaves the previous file (or none), never a truncated ledger. A
// file-backed chain returns ErrReleased: its file is already the log.
func (c *Chain) WriteFile(path string) error {
	if c.released > 0 {
		return c.releasedErr()
	}
	return writeFileAtomic(path, c.writeTo)
}

func (c *Chain) writeTo(w io.Writer) error {
	if _, err := io.WriteString(w, fileHeader); err != nil {
		return err
	}
	var buf []byte
	for i, b := range c.blocks {
		buf = appendFrameRecords(buf[:0], c.blocks[i:i+1])
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("block %d: %w", b.Header.Index, err)
		}
	}
	return nil
}

// writeFileAtomic replaces path with what write produces: the content lands
// in a temp file in path's directory (same filesystem, so the rename is
// atomic) and is synced before the swap. On any failure the temp file is
// removed and path is untouched.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	fail := func(err error) error { return fmt.Errorf("blockchain: write file: %w", err) }
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fail(err)
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename has happened
	w := bufio.NewWriterSize(tmp, 64<<10)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		// CreateTemp makes the file 0600; an auditor is usually someone else.
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fail(err)
	}
	return nil
}

// Damage pinpoints where a chain file stopped being loadable: the 1-based
// frame that failed (0 for the file header) and the byte offset it starts
// at, the height (= blocks loaded) of the surviving valid prefix, and the
// reason the frame was rejected. Offset is -1 when the damage was found by
// comparing against a donor (RepairFile) rather than by reading.
type Damage struct {
	Frame  int
	Offset int64
	Height uint64
	Reason string
}

func (d *Damage) String() string {
	at := ""
	if d.Offset >= 0 {
		at = fmt.Sprintf(" at byte %d", d.Offset)
	}
	return fmt.Sprintf("frame %d%s (after block height %d): %s", d.Frame, at, d.Height, d.Reason)
}

// ReadFile loads a chain file, validating every block against authority
// (nil skips signature checks). Anything ReadFilePrefix would report as
// damage is an error here.
func ReadFile(path string, authority *Authority) (*Chain, error) {
	c, damage, err := ReadFilePrefix(path, authority)
	if err != nil {
		return nil, err
	}
	if damage != nil {
		return nil, fmt.Errorf("blockchain: %s: %s", path, damage)
	}
	return c, nil
}

// ReadFilePrefix loads as much of a chain file as still validates: every
// leading frame that passes its CRC, decodes, links and (with a non-nil
// authority) verifies is imported, and the first failure is reported as
// Damage instead of an error — the caller gets the valid prefix plus a
// precise account of where the file went bad (truncation mid-frame, a bit
// flip, a duplicated tail, a file in the retired JSON-lines format). A
// clean file returns a nil Damage. The error return is reserved for I/O
// failures.
//
// With a nil authority, signature bytes are not checked (as in ReadFile),
// so a signature altered by someone who also recomputed the frame CRC is
// invisible here; RepairFile's byte-compare against a healthy peer still
// catches it.
func ReadFilePrefix(path string, authority *Authority) (*Chain, *Damage, error) {
	ioFailed := func(err error) (*Chain, *Damage, error) {
		return nil, nil, fmt.Errorf("blockchain: read file: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return ioFailed(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return ioFailed(err)
	}
	if !st.Mode().IsRegular() {
		// Frame lengths are bounded by the file's size, which only a
		// regular file has.
		return ioFailed(fmt.Errorf("%s is not a regular file", path))
	}
	size := st.Size()
	c := NewChain(authority)
	damaged := func(off int64, reason string) (*Chain, *Damage, error) {
		frame := c.Length() + 1
		if off == 0 {
			frame = 0 // the file header
		}
		return c, &Damage{Frame: frame, Offset: off, Height: uint64(c.Length()), Reason: reason}, nil
	}

	r := bufio.NewReaderSize(f, 64<<10)
	var head [len(fileHeader)]byte
	n, err := io.ReadFull(r, head[:])
	switch {
	case err == io.EOF:
		return c, nil, nil // an empty file is an empty chain
	case head[0] == '{':
		return damaged(0, "this is a JSON-lines chain file, written before the binary block log; this reader does not load it")
	case err == io.ErrUnexpectedEOF:
		return damaged(0, fmt.Sprintf("file ends %d bytes into the file header", n))
	case err != nil:
		return ioFailed(err)
	case string(head[:len(fileMagic)]) != fileMagic:
		return damaged(0, "not a chain file (bad magic)")
	case head[len(fileMagic)] != fileVersion:
		return damaged(0, fmt.Sprintf("chain file version %d, this reader knows version %d", head[len(fileMagic)], fileVersion))
	}

	var buf []byte
	in := make(interner)
	for off := int64(len(head)); off < size; {
		// One byte more than the longest varint, so that an overlong one
		// reads as an overflow, not as a short file.
		lp, err := r.Peek(binary.MaxVarintLen64 + 1)
		if err != nil && err != io.EOF {
			return ioFailed(err)
		}
		n, k := binary.Uvarint(lp)
		if k == 0 {
			return damaged(off, "file ends inside a frame length")
		}
		if k < 0 {
			return damaged(off, "frame length overflows 64 bits")
		}
		// The declared length is checked against the bytes the file still
		// has before anything is allocated for it.
		left := size - off - int64(k)
		if left < crc32.Size || n > uint64(left-crc32.Size) {
			return damaged(off, fmt.Sprintf("frame declares %d bytes + CRC, %d left in file", n, left))
		}
		r.Discard(k) // cannot fail: these bytes were just peeked
		need := int(n) + crc32.Size
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := io.ReadFull(r, buf); err != nil {
			return ioFailed(err) // the size was checked: the file changed under us
		}
		frame := buf[:n]
		if crc32.Checksum(frame, castagnoli) != binary.BigEndian.Uint32(buf[n:]) {
			return damaged(off, "frame CRC mismatch")
		}
		blk, err := decodeFrame(frame, in)
		if err != nil {
			return damaged(off, err.Error())
		}
		if err := c.append(blk, auditWorkers()); err != nil {
			return damaged(off, err.Error())
		}
		off += int64(k + need)
	}
	return c, nil, nil
}
