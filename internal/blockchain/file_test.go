package blockchain

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenChain is a fixed two-block chain: fixed records, times and
// signature integers (Import with a nil authority does not check them).
func goldenChain(t testing.TB) *Chain {
	t.Helper()
	roamer := mkRecord("d2", 2)
	roamer.ReportedVia = "agg2"
	roamer.Buffered = true
	c := NewChain(nil)
	for i, recs := range [][]Record{{mkRecord("d1", 1), roamer}, {mkRecord("d1", 3)}} {
		prev, index := c.nextLink()
		blk := &Block{
			Header: Header{
				Index:      index,
				PrevHash:   prev,
				MerkleRoot: MerkleRoot(leafHashes(recs)),
				Timestamp:  t0.Add(time.Duration(i) * time.Second),
				Producer:   "agg1",
			},
			Records: recs,
			Sig:     Signature{R: big.NewInt(0xdeadbeef + int64(i)), S: big.NewInt(0x1337)},
		}
		if err := c.Import(blk); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// The file format is a compatibility surface: these are the bytes of
// goldenChain, and they change only together with fileVersion.
var goldenFile = strings.Join([]string{
	"444d434841494e01", // "DMCHAIN", version 1

	"a201", // frame 0: 162 bytes
	"00",   // index
	"0000000000000000000000000000000000000000000000000000000000000000", // prev hash
	"08ab9290373e8aca96c9868ccb0029ed99c34ba8af79a14fabf0d0f218e99f6d", // merkle root
	"8080cac7e580a18a2c", "0461676731", // timestamp, producer "agg1"
	"04deadbeef", "021337", // signature r, s
	"02", // 2 records
	"24", "026431" + "01" + "0461676731" + "0461676731" + "8084f9a6e680a18a2c" + "8084af5f" + "80e209" + "80ade204" + "16" + "00",
	"24", "026432" + "02" + "0461676731" + "0461676732" + "8088a886e780a18a2c" + "8084af5f" + "80e209" + "80ade204" + "16" + "01",
	"7169ce3f", // crc32c of the frame

	"7d", // frame 1: 125 bytes
	"01",
	"44bc6e4573c36e2e630005feae668fd6428f100064b2eb3327c6dafc80b13c93",
	"38af3e059f4ba4537125be31eb16a897fa5269898408d7cfd83a957cda775738",
	"80a8a081ed80a18a2c", "0461676731",
	"04deadbef0", "021337",
	"01",
	"24", "026431" + "03" + "0461676731" + "0461676731" + "808cd7e5e780a18a2c" + "8084af5f" + "80e209" + "80ade204" + "16" + "00",
	"5fcd875c",
}, "")

func TestChainFileGoldenVector(t *testing.T) {
	c := goldenChain(t)
	path := filepath.Join(t.TempDir(), "golden.chain")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != goldenFile {
		t.Fatalf("file bytes changed:\n got %x\nwant %s", got, goldenFile)
	}
	// And the pinned bytes load: a reader change that breaks old files
	// fails here even if the writer changed with it.
	want, _ := hex.DecodeString(goldenFile)
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Length() != 2 || loaded.Head().Hash() != c.Head().Hash() || !sigEqual(loaded.Head().Sig, c.Head().Sig) {
		t.Fatalf("golden file loaded as %d blocks, head %s", loaded.Length(), loaded.Head().Hash())
	}
}

// A block at the aggregator's seal-backlog cap (2^18 records) was written
// but could not be read back while a block was one line under a 16 MiB
// scanner cap. Frames have no cap other than the file's own size.
func TestChainFileRoundTripsLargestBlock(t *testing.T) {
	const n = 1 << 18
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = mkRecord(fmt.Sprintf("device-%04d", i%1500), uint64(i))
	}
	c, signer := newSignedChain(t)
	if _, err := c.Seal(signer, t0, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big.chain")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() (*Chain, error){
		"ReadFile": func() (*Chain, error) { return ReadFile(path, c.authority) },
		"ReadFilePrefix": func() (*Chain, error) {
			got, damage, err := ReadFilePrefix(path, c.authority)
			if damage != nil {
				err = errors.New(damage.String())
			}
			return got, err
		},
	} {
		got, err := read()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.TotalRecords() != n || got.Head().Hash() != c.Head().Hash() {
			t.Fatalf("%s: %d records, head %s", name, got.TotalRecords(), got.Head().Hash())
		}
		if got.Head().Records[n-1] != recs[n-1] {
			t.Fatalf("%s: last record = %+v", name, got.Head().Records[n-1])
		}
	}
}

// failAfter passes n bytes through and then fails, like a disk filling up.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// A write that dies mid-file must leave the previous ledger whole and no
// temp file behind.
func TestWriteFileFailureKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildChainFile(t, dir, "agg1.chain", 3)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	longer := goldenChain(t)
	err = writeFileAtomic(path, func(w io.Writer) error {
		return longer.writeTo(&failAfter{w: w, n: 100})
	})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v, want the writer's failure", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed write changed the previous file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only the chain file", len(entries))
	}
	// The same call with a healthy writer does replace it.
	if err := longer.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFile(path, nil); err != nil || got.Length() != 2 {
		t.Fatalf("after a good write: %v, %v", got, err)
	}
}

// Decoding allocates per block (the block, its record slice, the two
// signature integers), not per record: identifier strings come from the
// load's interner and records decode in place.
func TestDecodeFrameAllocsPerBlockNotPerRecord(t *testing.T) {
	const n = 10000
	blk := &Block{Header: Header{Producer: "agg1", Timestamp: t0}, Sig: Signature{R: big.NewInt(1 << 40), S: big.NewInt(1 << 41)}}
	for i := 0; i < n; i++ {
		blk.Records = append(blk.Records, mkRecord(fmt.Sprintf("device-%04d", i%1500), uint64(i)))
	}
	frame := appendFrame(nil, blk)
	in := make(interner)
	if _, err := decodeFrame(frame, in); err != nil { // warms the interner
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		got, err := decodeFrame(frame, in)
		if err != nil || len(got.Records) != n {
			t.Fatalf("decode: %v", err)
		}
	})
	if allocs > 8 {
		t.Fatalf("decoding a %d-record frame allocates %.0f times, want a handful per block", n, allocs)
	}
}
