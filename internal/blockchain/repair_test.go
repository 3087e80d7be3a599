package blockchain

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildChainFile seals n blocks and writes them to dir/name, returning the
// path and the (chain, authority) that produced it.
func buildChainFile(t *testing.T, dir, name string, n int) (string, *Chain) {
	t.Helper()
	c, signer := newSignedChain(t)
	for i := 0; i < n; i++ {
		recs := []Record{mkRecord("d1", uint64(i*2+1)), mkRecord("d2", uint64(i*2+2))}
		if _, err := c.Seal(signer, t0.Add(time.Duration(i)*time.Second), recs); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, name)
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, c
}

// frameSpan is one block's place in a chain file's bytes: the length prefix
// starts at start, the frame is data[body:crc] and the CRC data[crc:end].
type frameSpan struct{ start, body, crc, end int }

// frameSpans walks a pristine chain file.
func frameSpans(t testing.TB, data []byte) []frameSpan {
	t.Helper()
	if string(data[:len(fileHeader)]) != fileHeader {
		t.Fatalf("file starts %q, want the %q header", data[:len(fileHeader)], fileHeader)
	}
	var spans []frameSpan
	for off := len(fileHeader); off < len(data); {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 {
			t.Fatalf("bad frame length at byte %d", off)
		}
		sp := frameSpan{start: off, body: off + k, crc: off + k + int(n), end: off + k + int(n) + crc32.Size}
		if sp.end > len(data) {
			t.Fatalf("frame at byte %d runs past the file", off)
		}
		spans = append(spans, sp)
		off = sp.end
	}
	return spans
}

// Offsets into a frame written by buildChainFile (index < 128, so one byte).
const (
	prevHashAt   = 1
	merkleRootAt = 1 + sha256.Size
)

// sigAt is the offset of the first byte of R's magnitude in b's frame.
func sigAt(b *Block) int { return len(b.Header.appendMarshal(nil)) + 1 }

// flip returns a copy of data with one bit of byte at changed, as a failing
// disk would.
func flip(data []byte, at int) []byte {
	out := append([]byte(nil), data...)
	out[at] ^= 0x04
	return out
}

// edit is flip by someone who then recomputes the frame's CRC: only the hash
// checks behind the CRC can catch it.
func edit(data []byte, sp frameSpan, at int) []byte {
	out := flip(data, at)
	binary.BigEndian.PutUint32(out[sp.crc:], crc32.Checksum(out[sp.body:sp.crc], castagnoli))
	return out
}

func splice(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// The corruption table: every way a chain file goes bad on disk must load
// back as a verified valid prefix plus a precise damage report — never a
// panic, never silently-loaded garbage.
func TestReadFilePrefixCorruptionTable(t *testing.T) {
	const blocks = 6
	dir := t.TempDir()
	path, orig := buildChainFile(t, dir, "agg1.chain", blocks)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := frameSpans(t, pristine)
	if len(sp) != blocks {
		t.Fatalf("expected %d frames, got %d", blocks, len(sp))
	}
	last := sp[blocks-1]
	if last.body-last.start != 2 {
		t.Fatalf("length prefix is %d bytes; the prefix-truncation case needs 2", last.body-last.start)
	}

	for _, tc := range []struct {
		name       string
		data       []byte
		wantPrefix int    // blocks that must survive
		wantDamage bool   // a Damage report is required
		wantReason string // substring of Damage.Reason
	}{
		{name: "truncation mid-block", data: pristine[:(last.body+last.crc)/2],
			wantPrefix: blocks - 1, wantDamage: true, wantReason: "left in file"},
		{name: "truncation inside the length prefix", data: pristine[:last.start+1],
			wantPrefix: blocks - 1, wantDamage: true, wantReason: "inside a frame length"},
		{name: "truncation inside the CRC", data: pristine[:last.end-2],
			wantPrefix: blocks - 1, wantDamage: true, wantReason: "left in file"},
		// A cleanly shorter file is indistinguishable from a replica that
		// sealed less: valid prefix, no damage. Catch-up is the consensus
		// sync's job.
		{name: "truncation at frame boundary", data: pristine[:last.start],
			wantPrefix: blocks - 1},

		{name: "bit flip in header merkle root", data: flip(pristine, sp[2].body+merkleRootAt),
			wantPrefix: 2, wantDamage: true, wantReason: "CRC"},
		{name: "bit flip in prev hash", data: flip(pristine, sp[3].body+prevHashAt),
			wantPrefix: 3, wantDamage: true, wantReason: "CRC"},
		{name: "bit flip in signature", data: flip(pristine, sp[1].body+sigAt(orig.blocks[1])),
			wantPrefix: 1, wantDamage: true, wantReason: "CRC"},
		{name: "bit flip in a record", data: flip(pristine, sp[4].crc-3),
			wantPrefix: 4, wantDamage: true, wantReason: "CRC"},
		{name: "bit flip in the CRC", data: flip(pristine, sp[2].crc+1),
			wantPrefix: 2, wantDamage: true, wantReason: "CRC"},
		{name: "bit flip in the length prefix", data: flip(pristine, sp[3].start),
			wantPrefix: 3, wantDamage: true},

		// The same flips with the CRC recomputed get past it and must be
		// stopped by the checks Import always ran.
		{name: "edited header merkle root", data: edit(pristine, sp[2], sp[2].body+merkleRootAt),
			wantPrefix: 2, wantDamage: true, wantReason: ErrBadMerkleRoot.Error()},
		{name: "edited prev hash", data: edit(pristine, sp[3], sp[3].body+prevHashAt),
			wantPrefix: 3, wantDamage: true, wantReason: ErrBadPrevHash.Error()},
		{name: "edited signature", data: edit(pristine, sp[1], sp[1].body+sigAt(orig.blocks[1])),
			wantPrefix: 1, wantDamage: true, wantReason: ErrBadSignature.Error()},
		{name: "edited record", data: edit(pristine, sp[4], sp[4].crc-3),
			wantPrefix: 4, wantDamage: true, wantReason: ErrBadMerkleRoot.Error()},

		{name: "duplicated tail", data: splice(pristine, pristine[last.start:]),
			wantPrefix: blocks, wantDamage: true, wantReason: ErrBadPrevHash.Error()},
		{name: "garbage mid-file", data: splice(pristine[:sp[3].start], []byte("not a frame at all\n"), pristine[sp[3].start:]),
			wantPrefix: 3, wantDamage: true},
		{name: "oversized declared length", data: splice(pristine[:sp[4].start], appendUvarint(nil, 1<<40), pristine[sp[4].body:]),
			wantPrefix: 4, wantDamage: true, wantReason: "left in file"},
		{name: "declared length overflows", data: splice(pristine[:sp[4].start], bytes.Repeat([]byte{0xff}, 11)),
			wantPrefix: 4, wantDamage: true, wantReason: "overflows"},
		{name: "JSON-lines input", data: []byte(`{"index":0,"prev_hash":"AAAA","merkle_root":"AAAA","timestamp_ns":1,"producer":"agg1","sig_r":"1","sig_s":"1","records":["AAAA"]}` + "\n"),
			wantPrefix: 0, wantDamage: true, wantReason: "JSON-lines"},
		{name: "unknown version", data: splice([]byte(fileMagic), []byte{fileVersion + 1}, pristine[len(fileHeader):]),
			wantPrefix: 0, wantDamage: true, wantReason: "version"},
		{name: "truncation inside the file header", data: pristine[:3],
			wantPrefix: 0, wantDamage: true, wantReason: "file header"},
		{name: "empty file", data: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "damaged.chain")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			prefix, damage, err := ReadFilePrefix(p, orig.authority)
			if err != nil {
				t.Fatalf("ReadFilePrefix: %v", err)
			}
			if prefix.Length() != tc.wantPrefix {
				t.Fatalf("prefix = %d blocks, want %d (damage: %v)", prefix.Length(), tc.wantPrefix, damage)
			}
			if (damage != nil) != tc.wantDamage {
				t.Fatalf("damage = %v, want reported: %v", damage, tc.wantDamage)
			}
			if damage != nil {
				// The damaged frame is the one after the surviving prefix and
				// starts where the pristine file's frame does; damage to the
				// file header is frame 0 at byte 0.
				wantFrame, wantOffset := tc.wantPrefix+1, int64(len(pristine))
				if tc.wantPrefix < blocks {
					wantOffset = int64(sp[tc.wantPrefix].start)
				}
				if tc.wantPrefix == 0 {
					wantFrame, wantOffset = 0, 0
				}
				if damage.Frame != wantFrame || damage.Offset != wantOffset {
					t.Fatalf("damage at frame %d byte %d, want frame %d byte %d (%s)", damage.Frame, damage.Offset, wantFrame, wantOffset, damage)
				}
				if damage.Height != uint64(tc.wantPrefix) {
					t.Fatalf("damage height %d, want %d", damage.Height, tc.wantPrefix)
				}
				if !strings.Contains(damage.Reason, tc.wantReason) {
					t.Fatalf("damage reason %q, want it to mention %q", damage.Reason, tc.wantReason)
				}
			}
			if at, err := prefix.Verify(); err != nil {
				t.Fatalf("surviving prefix fails verification at %d: %v", at, err)
			}
			// The strict loader must reject anything the prefix loader
			// reported damage on.
			if _, err := ReadFile(p, orig.authority); tc.wantDamage && err == nil {
				t.Fatal("ReadFile accepted a damaged file")
			}
			// And each surviving block must be the original, bit for bit.
			for i := 0; i < prefix.Length(); i++ {
				pb, _ := prefix.Block(i)
				ob, _ := orig.Block(i)
				if pb.Hash() != ob.Hash() || !sigEqual(pb.Sig, ob.Sig) {
					t.Fatalf("prefix block %d differs from the original", i)
				}
			}
		})
	}
}

// A signature altered together with its frame's CRC is invisible to a
// nil-authority prefix load (the signature bytes are not checked), which is
// exactly why RepairFile byte-compares against the donor even when the file
// loads clean.
func TestReadFilePrefixSigFlipInvisibleWithoutAuthority(t *testing.T) {
	dir := t.TempDir()
	path, orig := buildChainFile(t, dir, "agg1.chain", 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := frameSpans(t, data)
	if err := os.WriteFile(path, edit(data, sp[2], sp[2].body+sigAt(orig.blocks[2])), 0o644); err != nil {
		t.Fatal(err)
	}
	prefix, damage, err := ReadFilePrefix(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if damage != nil || prefix.Length() != 4 {
		t.Fatalf("nil-authority load: prefix=%d damage=%v — expected the flip to pass unnoticed here", prefix.Length(), damage)
	}
}

func TestRepairFileRestoresDamagedTail(t *testing.T) {
	dir := t.TempDir()
	damaged, orig := buildChainFile(t, dir, "damaged.chain", 6)
	healthy := filepath.Join(dir, "healthy.chain")
	if err := orig.WriteFile(healthy); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a record byte in block 3: blocks 4 and 5 are intact on disk but
	// unreachable (their prev-hash linkage passes through the damage), so
	// the repair replaces everything from block 3 on.
	sp := frameSpans(t, data)
	if err := os.WriteFile(damaged, flip(data, sp[3].crc-3), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := RepairFile(damaged, healthy, orig.authority)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrefixBlocks != 3 || rep.MatchedBlocks != 3 || rep.RepairedBlocks != 3 || rep.FinalBlocks != 6 {
		t.Fatalf("report = %+v, want prefix 3, matched 3, repaired 3, final 6", rep)
	}
	if rep.Damage == nil || rep.Damage.Frame != 4 || rep.Damage.Offset != int64(sp[3].start) {
		t.Fatalf("damage = %v, want frame 4 at byte %d", rep.Damage, sp[3].start)
	}
	got, err := ReadFile(damaged, orig.authority)
	if err != nil {
		t.Fatal(err)
	}
	if got.Length() != 6 {
		t.Fatalf("repaired chain has %d blocks, want 6", got.Length())
	}
	if at, err := got.Verify(); err != nil {
		t.Fatalf("repaired chain fails verification at %d: %v", at, err)
	}
	for i := 0; i < 6; i++ {
		gb, _ := got.Block(i)
		ob, _ := orig.Block(i)
		if gb.Hash() != ob.Hash() || !sigEqual(gb.Sig, ob.Sig) {
			t.Fatalf("repaired block %d differs from the original", i)
		}
	}
}

func TestRepairFileCatchesSigFlipWithoutAuthority(t *testing.T) {
	dir := t.TempDir()
	damaged, orig := buildChainFile(t, dir, "damaged.chain", 5)
	healthy := filepath.Join(dir, "healthy.chain")
	if err := orig.WriteFile(healthy); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	sp := frameSpans(t, data)
	if err := os.WriteFile(damaged, edit(data, sp[2], sp[2].body+sigAt(orig.blocks[2])), 0o644); err != nil {
		t.Fatal(err)
	}
	// nil authority: the load alone cannot see the flip; the donor
	// byte-compare must.
	rep, err := RepairFile(damaged, healthy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damage == nil || !strings.Contains(rep.Damage.Reason, "signature") {
		t.Fatalf("damage = %v, want the signature mismatch", rep.Damage)
	}
	if rep.MatchedBlocks != 2 || rep.FinalBlocks != 5 {
		t.Fatalf("report = %+v, want matched 2, final 5", rep)
	}
	// With the real authority, the repaired file must verify end to end.
	got, err := ReadFile(damaged, orig.authority)
	if err != nil {
		t.Fatal(err)
	}
	if at, err := got.Verify(); err != nil {
		t.Fatalf("repaired chain fails verification at %d: %v", at, err)
	}
}

func TestRepairFileLeavesCleanFileAlone(t *testing.T) {
	dir := t.TempDir()
	path, orig := buildChainFile(t, dir, "clean.chain", 4)
	healthy := filepath.Join(dir, "healthy.chain")
	if err := orig.WriteFile(healthy); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RepairFile(path, healthy, orig.authority)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Damage != nil || rep.RepairedBlocks != 0 || rep.FinalBlocks != 4 {
		t.Fatalf("report = %+v, want untouched clean file", rep)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("repair rewrote a clean file")
	}
}

func TestRepairFileRefusesBadDonor(t *testing.T) {
	dir := t.TempDir()
	damaged, orig := buildChainFile(t, dir, "damaged.chain", 5)
	data, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	sp := frameSpans(t, data)
	if err := os.WriteFile(damaged, flip(data, sp[4].crc-3), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("donor shorter than prefix", func(t *testing.T) {
		short, shortChain := newTruncatedDonor(t, dir, orig, 2)
		_ = shortChain
		if _, err := RepairFile(damaged, short, orig.authority); err == nil {
			t.Fatal("repair accepted a donor behind the damaged prefix")
		}
	})
	t.Run("donor itself damaged", func(t *testing.T) {
		bad := filepath.Join(dir, "bad-donor.chain")
		if err := os.WriteFile(bad, edit(data, sp[1], sp[1].body+merkleRootAt), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RepairFile(damaged, bad, orig.authority); err == nil {
			t.Fatal("repair accepted a damaged donor")
		}
	})
	t.Run("donor from a different history", func(t *testing.T) {
		other, otherChain := newSignedChain(t)
		for i := 0; i < 5; i++ {
			if _, err := other.Seal(otherChain, t0.Add(time.Duration(i)*time.Hour), []Record{mkRecord("dX", uint64(i+1))}); err != nil {
				t.Fatal(err)
			}
		}
		divergent := filepath.Join(dir, "divergent.chain")
		if err := other.WriteFile(divergent); err != nil {
			t.Fatal(err)
		}
		// nil authority on both sides: producers differ, so only the
		// byte-compare can refuse this.
		if _, err := RepairFile(damaged, divergent, nil); err == nil {
			t.Fatal("repair accepted a donor with a divergent history")
		}
	})
}

// newTruncatedDonor writes only the first n blocks of src's chain.
func newTruncatedDonor(t *testing.T, dir string, src *Chain, n int) (string, *Chain) {
	t.Helper()
	short := NewChain(nil)
	for i := 0; i < n; i++ {
		b, err := src.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := short.Import(b); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "short-donor.chain")
	if err := short.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, short
}

// FuzzReadFilePrefix: whatever bytes land in a chain file, the prefix
// loader must not panic, must return a structurally verified prefix, and
// must never load a block the strict loader would reject in the prefix it
// reports as valid.
func FuzzReadFilePrefix(f *testing.F) {
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.chain")
	fc, fsigner := newSignedChainF(f)
	for i := 0; i < 4; i++ {
		if _, err := fc.Seal(fsigner, t0.Add(time.Duration(i)*time.Second), []Record{mkRecord("d1", uint64(i+1))}); err != nil {
			f.Fatal(err)
		}
	}
	if err := fc.WriteFile(seedPath); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	sp := frameSpans(f, seed)
	f.Add(seed)
	f.Add([]byte(""))
	f.Add([]byte(`{"index":0,"records":[]}` + "\n"))
	f.Add(seed[:len(seed)/2])
	f.Add(splice(seed, seed[sp[3].start:]))
	f.Add(seed[:sp[2].start+1])
	f.Add(seed[:sp[3].end-2])
	f.Add(flip(seed, sp[1].body+merkleRootAt))
	f.Add(edit(seed, sp[1], sp[1].crc-3))
	f.Add(edit(seed, sp[2], sp[2].body+sigAt(fc.blocks[2])))
	f.Add(flip(seed, sp[0].crc))
	f.Add(splice(seed[:sp[1].start], appendUvarint(nil, 1<<40), seed[sp[1].body:]))
	f.Add(splice(seed[:sp[2].start], []byte("garbage"), seed[sp[2].start:]))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.chain")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		prefix, damage, err := ReadFilePrefix(p, nil)
		if err != nil {
			t.Fatalf("I/O error on an existing file: %v", err)
		}
		if at, verr := prefix.Verify(); verr != nil {
			t.Fatalf("prefix fails structural verification at %d: %v", at, verr)
		}
		if damage == nil {
			// No damage claimed: the strict loader must agree end to end.
			full, ferr := ReadFile(p, nil)
			if ferr != nil {
				t.Fatalf("clean prefix but strict load failed: %v", ferr)
			}
			if full.Length() != prefix.Length() {
				t.Fatalf("clean prefix %d blocks but strict load %d", prefix.Length(), full.Length())
			}
		}
	})
}

// newSignedChainF is newSignedChain for fuzz targets (testing.F, not *T).
func newSignedChainF(f *testing.F) (*Chain, *Signer) {
	f.Helper()
	signer, err := NewSigner("agg1")
	if err != nil {
		f.Fatal(err)
	}
	auth := NewAuthority()
	if err := auth.Admit(signer.ID(), signer.Public()); err != nil {
		f.Fatal(err)
	}
	return NewChain(auth), signer
}
