package blockchain

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"decentmeter/internal/units"
)

var t0 = time.Date(2020, 4, 29, 10, 0, 0, 0, time.UTC)

func mkRecord(dev string, seq uint64) Record {
	return Record{
		DeviceID:       dev,
		Seq:            seq,
		HomeAggregator: "agg1",
		ReportedVia:    "agg1",
		Timestamp:      t0.Add(time.Duration(seq) * 100 * time.Millisecond),
		Interval:       100 * time.Millisecond,
		Current:        80 * units.Milliampere,
		Voltage:        5 * units.Volt,
		Energy:         11 * units.MicrowattHour,
	}
}

func TestRecordMarshalRoundTrip(t *testing.T) {
	r := mkRecord("device-1", 42)
	r.ReportedVia = "agg2"
	r.Buffered = true
	got, err := UnmarshalRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(dev string, seq uint64, cur, volt, en int32, buffered bool) bool {
		r := Record{
			DeviceID:       dev,
			Seq:            seq,
			HomeAggregator: "h",
			ReportedVia:    "v",
			Timestamp:      t0,
			Interval:       100 * time.Millisecond,
			Current:        units.Current(cur),
			Voltage:        units.Voltage(volt),
			Energy:         units.Energy(en),
			Buffered:       buffered,
		}
		got, err := UnmarshalRecord(r.Marshal())
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordUnmarshalGarbage(t *testing.T) {
	f := func(b []byte) bool {
		UnmarshalRecord(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalRecord(nil); err == nil {
		t.Fatal("empty record decoded")
	}
}

func TestRecordHashInjective(t *testing.T) {
	a := mkRecord("d", 1)
	b := a
	b.Energy++
	if HashRecord(a) == HashRecord(b) {
		t.Fatal("distinct records share a hash")
	}
	// Field-boundary confusion: DeviceID "ab" + home "c" vs "a" + "bc".
	x := Record{DeviceID: "ab", HomeAggregator: "c", Timestamp: t0}
	y := Record{DeviceID: "a", HomeAggregator: "bc", Timestamp: t0}
	if HashRecord(x) == HashRecord(y) {
		t.Fatal("length prefixes failed to separate fields")
	}
}

func TestMerkleRootProperties(t *testing.T) {
	if !MerkleRoot(nil).IsZero() {
		t.Fatal("empty root not zero")
	}
	one := []Hash{HashRecord(mkRecord("d", 1))}
	if MerkleRoot(one) != one[0] {
		t.Fatal("single-leaf root != leaf")
	}
	leaves := make([]Hash, 7)
	for i := range leaves {
		leaves[i] = HashRecord(mkRecord("d", uint64(i)))
	}
	root := MerkleRoot(leaves)
	// Any leaf change changes the root.
	for i := range leaves {
		mod := make([]Hash, len(leaves))
		copy(mod, leaves)
		mod[i] = HashRecord(mkRecord("d", 100+uint64(i)))
		if MerkleRoot(mod) == root {
			t.Fatalf("leaf %d change left root unchanged", i)
		}
	}
	// Order matters.
	swapped := make([]Hash, len(leaves))
	copy(swapped, leaves)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if MerkleRoot(swapped) == root {
		t.Fatal("leaf order does not affect root")
	}
}

func TestMerkleProofAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		leaves := make([]Hash, n)
		for i := range leaves {
			leaves[i] = HashRecord(mkRecord("d", uint64(i)))
		}
		root := MerkleRoot(leaves)
		for i := 0; i < n; i++ {
			proof, err := BuildProof(leaves, i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if !VerifyProof(leaves[i], proof, root) {
				t.Fatalf("n=%d i=%d: proof rejected", n, i)
			}
			// A different leaf must not verify with this proof.
			other := HashRecord(mkRecord("x", uint64(i)))
			if VerifyProof(other, proof, root) {
				t.Fatalf("n=%d i=%d: forged leaf accepted", n, i)
			}
		}
	}
}

// The parallel root is the sequential root, bit for bit, at every width and
// on both sides of every chunk boundary. The largest block goes first, so
// the rest run in scratch buffers larger than they need.
func TestRecordsRootMatchesSequentialFold(t *testing.T) {
	sizes := []int{1<<16 + 3, 1, 2, merkleChunk - 1, merkleChunk, merkleChunk + 1, 3*merkleChunk + 1, 40001}
	recs := make([]Record, sizes[0])
	for i := range recs {
		recs[i] = mkRecord(fmt.Sprintf("d%d", i%97), uint64(i))
	}
	leaves := leafHashes(recs)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		c := NewChain(nil)
		for _, n := range sizes {
			want := merkleRootInPlace(append([]Hash(nil), leaves[:n]...))
			for _, workers := range []int{auditWorkers(), sealWorkers()} {
				if got := c.recordsRoot(recs[:n], workers); got != want {
					t.Fatalf("GOMAXPROCS=%d, %d workers, %d records: root %s, want %s", procs, workers, n, got, want)
				}
			}
		}
	}
	// Inclusion proofs are built from the leaves alone and must still land
	// on the root a multi-chunk block was sealed with.
	c := NewChain(nil)
	blk, err := c.AppendUnsealed("agg1", t0, recs[:merkleChunk+1])
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, merkleChunk - 1, merkleChunk} {
		proof, err := c.ProveRecord(0, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyProof(leaves[idx], proof, blk.Header.MerkleRoot) {
			t.Fatalf("proof for record %d of a two-chunk block rejected", idx)
		}
	}
}

func TestMerkleProofBadIndex(t *testing.T) {
	leaves := []Hash{{1}, {2}}
	if _, err := BuildProof(leaves, -1); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
	if _, err := BuildProof(leaves, 2); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestMerkleProofQuick(t *testing.T) {
	f := func(nRaw, iRaw uint8) bool {
		n := int(nRaw%40) + 1
		i := int(iRaw) % n
		leaves := make([]Hash, n)
		for j := range leaves {
			leaves[j] = HashRecord(mkRecord("q", uint64(j)))
		}
		proof, err := BuildProof(leaves, i)
		if err != nil {
			return false
		}
		return VerifyProof(leaves[i], proof, MerkleRoot(leaves))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func newSignedChain(t *testing.T) (*Chain, *Signer) {
	t.Helper()
	signer, err := NewSigner("agg1")
	if err != nil {
		t.Fatal(err)
	}
	auth := NewAuthority()
	if err := auth.Admit(signer.ID(), signer.Public()); err != nil {
		t.Fatal(err)
	}
	return NewChain(auth), signer
}

func TestChainSealAndVerify(t *testing.T) {
	c, signer := newSignedChain(t)
	for i := 0; i < 5; i++ {
		recs := []Record{mkRecord("d1", uint64(i*2)), mkRecord("d2", uint64(i*2+1))}
		blk, err := c.Seal(signer, t0.Add(time.Duration(i)*time.Second), recs)
		if err != nil {
			t.Fatalf("seal %d: %v", i, err)
		}
		if blk.Header.Index != uint64(i) {
			t.Fatalf("block index = %d, want %d", blk.Header.Index, i)
		}
	}
	if c.Length() != 5 || c.TotalRecords() != 10 {
		t.Fatalf("length/records = %d/%d", c.Length(), c.TotalRecords())
	}
	if bad, err := c.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
	// Genesis links to the zero hash.
	b0, err := c.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	if !b0.Header.PrevHash.IsZero() {
		t.Fatal("genesis prev hash not zero")
	}
}

func TestChainRejectsEmptyBlock(t *testing.T) {
	c, signer := newSignedChain(t)
	if _, err := c.Seal(signer, t0, nil); !errors.Is(err, ErrEmptyBlock) {
		t.Fatalf("err = %v", err)
	}
}

func TestChainDetectsRecordTamper(t *testing.T) {
	c, signer := newSignedChain(t)
	if _, err := c.Seal(signer, t0, []Record{mkRecord("d1", 0)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(signer, t0.Add(time.Second), []Record{mkRecord("d1", 1)}); err != nil {
		t.Fatal(err)
	}
	// An attacker with storage access halves a stored consumption value.
	blk, _ := c.Block(0)
	blk.Records[0].Energy /= 2
	bad, err := c.Verify()
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tamper not detected: %v", err)
	}
	if bad != 0 {
		t.Fatalf("tamper located at %d, want 0", bad)
	}
}

func TestChainDetectsHeaderTamper(t *testing.T) {
	c, signer := newSignedChain(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Seal(signer, t0, []Record{mkRecord("d1", uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	blk, _ := c.Block(1)
	blk.Header.Timestamp = blk.Header.Timestamp.Add(time.Hour)
	bad, err := c.Verify()
	if !errors.Is(err, ErrTampered) {
		t.Fatal("header tamper not detected")
	}
	// Either block 1 (signature broken) or block 2 (linkage broken)
	// must be flagged; signature check comes first.
	if bad != 1 {
		t.Fatalf("tamper located at %d, want 1", bad)
	}
}

func TestChainRejectsForeignProducer(t *testing.T) {
	c, signer := newSignedChain(t)
	if _, err := c.Seal(signer, t0, []Record{mkRecord("d", 0)}); err != nil {
		t.Fatal(err)
	}
	rogue, err := NewSigner("rogue")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(rogue, t0, []Record{mkRecord("d", 1)}); !errors.Is(err, ErrUnknownAuthority) {
		t.Fatalf("rogue seal err = %v", err)
	}
}

func TestChainRejectsForgedSignature(t *testing.T) {
	signer, _ := NewSigner("agg1")
	imposter, _ := NewSigner("agg1") // same ID, different key
	auth := NewAuthority()
	if err := auth.Admit("agg1", signer.Public()); err != nil {
		t.Fatal(err)
	}
	c := NewChain(auth)
	if _, err := c.Seal(imposter, t0, []Record{mkRecord("d", 0)}); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("imposter err = %v", err)
	}
}

func TestChainImportValidation(t *testing.T) {
	c, signer := newSignedChain(t)
	blk, err := c.Seal(signer, t0, []Record{mkRecord("d", 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Import into a second chain with the same authority succeeds.
	c2 := NewChain(c.authority)
	if err := c2.Import(blk); err != nil {
		t.Fatal(err)
	}
	// Re-import (wrong index now) fails.
	if err := c2.Import(blk); err == nil {
		t.Fatal("duplicate import accepted")
	}
}

func TestAuthorityDuplicateAdmit(t *testing.T) {
	s, _ := NewSigner("a")
	auth := NewAuthority()
	if err := auth.Admit("a", s.Public()); err != nil {
		t.Fatal(err)
	}
	if err := auth.Admit("a", s.Public()); err == nil {
		t.Fatal("duplicate admit accepted")
	}
	if auth.Members() != 1 {
		t.Fatalf("members = %d", auth.Members())
	}
}

func TestChainRecordsOf(t *testing.T) {
	c, signer := newSignedChain(t)
	c.Seal(signer, t0, []Record{mkRecord("a", 0), mkRecord("b", 0)})
	c.Seal(signer, t0, []Record{mkRecord("a", 1)})
	got, err := c.RecordsOf("a")
	if err != nil || len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("RecordsOf = %+v, %v", got, err)
	}
	if ghost, err := c.RecordsOf("ghost"); err != nil || len(ghost) != 0 {
		t.Fatalf("records for unknown device: %v, %v", ghost, err)
	}
}

func TestChainProveRecord(t *testing.T) {
	c, signer := newSignedChain(t)
	recs := []Record{mkRecord("a", 0), mkRecord("b", 1), mkRecord("c", 2)}
	blk, err := c.Seal(signer, t0, recs)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := c.ProveRecord(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyProof(HashRecord(recs[1]), proof, blk.Header.MerkleRoot) {
		t.Fatal("record proof rejected")
	}
}

func TestChainFileRoundTrip(t *testing.T) {
	c, signer := newSignedChain(t)
	// A record over 127 bytes takes a two-byte length in its frame.
	long := mkRecord(strings.Repeat("device-with-a-very-long-name/", 6), 9)
	for i := 0; i < 4; i++ {
		if _, err := c.Seal(signer, t0.Add(time.Duration(i)*time.Minute), []Record{
			mkRecord("d1", uint64(i)), long, mkRecord("d2", uint64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "agg1.chain")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path, c.authority)
	if err != nil {
		t.Fatal(err)
	}
	if got.Length() != 4 || got.TotalRecords() != 12 {
		t.Fatalf("reloaded %d blocks / %d records", got.Length(), got.TotalRecords())
	}
	for i, b := range got.blocks {
		if !slices.Equal(b.Records, c.blocks[i].Records) || !sigEqual(b.Sig, c.blocks[i].Sig) {
			t.Fatalf("block %d changed across file round trip", i)
		}
	}
	if bad, err := got.Verify(); err != nil || bad != -1 {
		t.Fatalf("reloaded chain verify: %d, %v", bad, err)
	}
	if got.Head().Hash() != c.Head().Hash() {
		t.Fatal("head hash changed across file round trip")
	}
}

func TestChainFileTamperDetectedOnLoad(t *testing.T) {
	c, signer := newSignedChain(t)
	c.Seal(signer, t0, []Record{mkRecord("d", 0)})
	c.Seal(signer, t0, []Record{mkRecord("d", 1)})
	path := filepath.Join(t.TempDir(), "agg1.chain")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Reload, corrupt one record in memory, rewrite, reload again.
	loaded, err := ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded.blocks[0].Records[0].Energy *= 3
	if err := loaded.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, c.authority); err == nil {
		t.Fatal("tampered chain file loaded cleanly")
	}
}

func TestHashHeaderSensitivity(t *testing.T) {
	h := Header{Index: 1, Timestamp: t0, Producer: "agg1"}
	base := HashHeader(h)
	variants := []Header{
		{Index: 2, Timestamp: t0, Producer: "agg1"},
		{Index: 1, Timestamp: t0.Add(time.Nanosecond), Producer: "agg1"},
		{Index: 1, Timestamp: t0, Producer: "agg2"},
	}
	for i, v := range variants {
		if HashHeader(v) == base {
			t.Fatalf("variant %d collides", i)
		}
	}
}
