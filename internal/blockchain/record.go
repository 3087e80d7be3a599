// Package blockchain implements the paper's tamper-proof storage layer:
// "the reported data and a hash are encapsulated into a blockchain data
// structure by the aggregator. The hash of a new block is created from the
// reported data and the hash of the previous block... Blockchain is only
// used as a hashed data chain without any consensus" — a permissioned hash
// chain whose only writers are the trusted aggregators.
//
// On top of the paper's minimum (hash chaining), blocks carry a Merkle root
// over their records (compact per-record inclusion proofs for billing
// disputes) and an ECDSA P-256 signature by the producing aggregator, so
// the permissioned authority set is cryptographically enforced rather than
// assumed.
package blockchain

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"decentmeter/internal/units"
)

// Hash is a SHA-256 digest.
type Hash [sha256.Size]byte

// String renders the first bytes as hex for logs.
func (h Hash) String() string {
	return fmt.Sprintf("%x", h[:8])
}

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool {
	return h == Hash{}
}

// Record is one verified consumption report as stored by an aggregator:
// the device's measurement plus the membership context needed for
// location-independent billing.
type Record struct {
	// DeviceID is the reporting device.
	DeviceID string
	// Seq is the device's report sequence number.
	Seq uint64
	// HomeAggregator is the device's master network.
	HomeAggregator string
	// ReportedVia is the aggregator that collected the report (differs
	// from HomeAggregator for roaming devices on temporary membership).
	ReportedVia string
	// Timestamp is the device's measurement time.
	Timestamp time.Time
	// Interval is the measurement duration the energy integrates over.
	Interval time.Duration
	// Current is the reported draw over the interval.
	Current units.Current
	// Voltage is the reported bus voltage.
	Voltage units.Voltage
	// Energy is the consumption for this interval.
	Energy units.Energy
	// Buffered marks a record that was locally stored during a
	// disconnect and delivered late (Fig. 6's blue segment).
	Buffered bool
}

// appendUvarint appends a varint to the hashing buffer. Bytes append
// directly instead of staging through a PutUvarint scratch array — this
// runs ~10x per record on the digest and seal hot paths, and the staging
// copy was a measurable slice of the consensus profile.
func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func appendVarint(dst []byte, v int64) []byte {
	// Zigzag, exactly as encoding/binary does.
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return appendUvarint(dst, uv)
}

func appendLenString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Marshal serializes the record canonically for hashing and storage.
// Length-prefixed fields make the encoding injective: no two distinct
// records share bytes.
func (r Record) Marshal() []byte {
	return r.AppendMarshal(make([]byte, 0, 96))
}

// AppendMarshal appends the canonical encoding to dst; the seal path calls
// it with a scratch buffer so per-record hashing does not allocate.
func (r Record) AppendMarshal(dst []byte) []byte {
	out := dst
	out = appendLenString(out, r.DeviceID)
	out = appendUvarint(out, r.Seq)
	out = appendLenString(out, r.HomeAggregator)
	out = appendLenString(out, r.ReportedVia)
	out = appendVarint(out, r.Timestamp.UnixNano())
	out = appendVarint(out, int64(r.Interval))
	out = appendVarint(out, int64(r.Current))
	out = appendVarint(out, int64(r.Voltage))
	out = appendVarint(out, int64(r.Energy))
	if r.Buffered {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	return out
}

// UnmarshalRecord parses a canonical encoding.
func UnmarshalRecord(b []byte) (Record, error) {
	var r Record
	err := unmarshalRecordInto(&r, b, nil, &r)
	return r, err
}

// unmarshalRecordInto parses a canonical encoding into *r. Identifier
// strings come from in (nil copies them), so that loading a chain file
// allocates per distinct identifier, not per record; like is the record
// decoded just before (or r itself), whose identifiers are reused without a
// lookup when they are the same — in a sealed block they nearly always are.
func unmarshalRecordInto(r *Record, b []byte, in interner, like *Record) error {
	var err error
	if r.DeviceID, b, err = readLenString(b, in, like.DeviceID); err != nil {
		return fmt.Errorf("blockchain: record device id: %w", err)
	}
	if r.Seq, b, err = readUvarint(b); err != nil {
		return fmt.Errorf("blockchain: record seq: %w", err)
	}
	if r.HomeAggregator, b, err = readLenString(b, in, like.HomeAggregator); err != nil {
		return fmt.Errorf("blockchain: record home: %w", err)
	}
	if r.ReportedVia, b, err = readLenString(b, in, like.ReportedVia); err != nil {
		return fmt.Errorf("blockchain: record via: %w", err)
	}
	var ts int64
	if ts, b, err = readVarint(b); err != nil {
		return fmt.Errorf("blockchain: record timestamp: %w", err)
	}
	r.Timestamp = time.Unix(0, ts).UTC()
	var v int64
	if v, b, err = readVarint(b); err != nil {
		return fmt.Errorf("blockchain: record interval: %w", err)
	}
	r.Interval = time.Duration(v)
	if v, b, err = readVarint(b); err != nil {
		return fmt.Errorf("blockchain: record current: %w", err)
	}
	r.Current = units.Current(v)
	if v, b, err = readVarint(b); err != nil {
		return fmt.Errorf("blockchain: record voltage: %w", err)
	}
	r.Voltage = units.Voltage(v)
	if v, b, err = readVarint(b); err != nil {
		return fmt.Errorf("blockchain: record energy: %w", err)
	}
	r.Energy = units.Energy(v)
	if len(b) < 1 {
		return fmt.Errorf("blockchain: record truncated before flags")
	}
	r.Buffered = b[0] == 1
	if len(b) != 1 {
		return fmt.Errorf("blockchain: record has %d trailing bytes", len(b)-1)
	}
	return nil
}

// HashRecord returns the leaf hash of a record. Leaves are domain-separated
// from interior Merkle nodes (0x00 prefix) to prevent second-preimage
// splices.
func HashRecord(r Record) Hash {
	var scratch [128]byte
	h, _ := hashRecordInto(r, scratch[:0])
	return h
}

// hashRecordInto hashes r using buf (length 0) as marshalling scratch; it
// returns the possibly-grown buffer so callers can keep its capacity and
// batch hashing stays allocation-free.
func hashRecordInto(r Record, buf []byte) (Hash, []byte) {
	buf = append(buf, 0x00)
	buf = r.AppendMarshal(buf)
	return sha256.Sum256(buf), buf
}

func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad varint")
	}
	return v, b[n:], nil
}

// readLenString reads a length-prefixed string; see interner.str for in and
// hint.
func readLenString(b []byte, in interner, hint string) (string, []byte, error) {
	n, rest, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("truncated string")
	}
	return in.str(rest[:n], hint), rest[n:], nil
}
