package blockchain

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fileBackedChain returns a signed chain appending to a fresh file.
func fileBackedChain(t *testing.T, name string) (*Chain, *Signer, string) {
	t.Helper()
	c, signer := newSignedChain(t)
	path := filepath.Join(t.TempDir(), name)
	if err := c.OpenLog(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.CloseLog() })
	return c, signer, path
}

func sealRound(t *testing.T, c *Chain, s *Signer, round, n int) []Record {
	t.Helper()
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = mkRecord(fmt.Sprintf("d%d", i%7), uint64(round*n+i+1))
	}
	if _, err := c.Seal(s, t0.Add(time.Duration(round)*time.Second), recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

// inMemoryTwin rebuilds a file-backed chain's blocks in memory: its
// (released) headers and signatures over the records each round sealed.
func inMemoryTwin(t *testing.T, fc *Chain, rounds [][]Record) *Chain {
	t.Helper()
	twin := NewChain(fc.authority)
	for i, b := range fc.blocks {
		if err := twin.Import(&Block{Header: b.Header, Records: rounds[i], Sig: b.Sig}); err != nil {
			t.Fatal(err)
		}
	}
	return twin
}

func readBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The kill -9 gate: a file-backed chain killed while appending its last
// frame loses that frame and nothing else. Cutting the file at every byte
// of the last frame must load exactly the frames written before it and
// place the damage at the cut frame.
func TestLogCutAnywhereInLastFrameKeepsEarlierBlocks(t *testing.T) {
	c, signer, path := fileBackedChain(t, "agg1.chain")
	for round := 0; round < 3; round++ {
		sealRound(t, c, signer, round, 3)
	}
	data := readBytes(t, path)
	spans := frameSpans(t, data)
	if len(spans) != 3 {
		t.Fatalf("file holds %d frames, want 3", len(spans))
	}
	last := spans[2]
	cut := filepath.Join(t.TempDir(), "cut.chain")
	for size := last.start; size < last.end; size++ {
		if err := os.WriteFile(cut, data[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		got, damage, err := ReadFilePrefix(cut, c.authority)
		if err != nil {
			t.Fatalf("cut at %d: %v", size, err)
		}
		if got.Length() != 2 || got.Head().Hash() != c.blocks[1].Hash() {
			t.Fatalf("cut at %d: loaded %d blocks, want the 2 written before", size, got.Length())
		}
		switch {
		case size == last.start && damage != nil:
			t.Fatalf("cut at the frame boundary reported damage: %v", damage)
		case size > last.start && (damage == nil || damage.Frame != 3 || damage.Offset != int64(last.start) || damage.Height != 2):
			t.Fatalf("cut at %d: damage %v, want frame 3 at byte %d", size, damage, last.start)
		}
	}
}

// A file-backed chain writes the bytes WriteFile writes for the same blocks,
// a block at the seal-backlog cap (2^18 records) included.
func TestLogMatchesWriteFile(t *testing.T) {
	c, signer, path := fileBackedChain(t, "agg1.chain")
	rounds := [][]Record{
		sealRound(t, c, signer, 0, 5),
		sealRound(t, c, signer, 1, 1<<18),
		sealRound(t, c, signer, 2, 1),
	}
	want := filepath.Join(t.TempDir(), "written.chain")
	if err := inMemoryTwin(t, c, rounds).WriteFile(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readBytes(t, path), readBytes(t, want)) {
		t.Fatal("the appended file differs from WriteFile of the same blocks")
	}
	got, err := ReadFile(path, c.authority)
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := got.Verify(); err != nil || got.TotalRecords() != 1<<18+6 {
		t.Fatalf("appended file: %d records, verify at %d: %v", got.TotalRecords(), bad, err)
	}
}

// Four replicas group-commit the same decided blocks: the group's Merkle
// roots are computed and its frames encoded once, and every file holds the
// bytes WriteFile writes. A replica whose blocks carry their own copy of the
// records is checked and encoded on its own, to the same bytes.
func TestImportBatchesEncodesSharedGroupOnce(t *testing.T) {
	leader, signer := newSignedChain(t)
	var groups [][]Record
	for round := 0; round < 3; round++ {
		groups = append(groups, sealRound(t, leader, signer, round, 100+round))
	}
	want := filepath.Join(t.TempDir(), "written.chain")
	if err := leader.WriteFile(want); err != nil {
		t.Fatal(err)
	}

	const replicas = 4
	dir := t.TempDir()
	chains := make([]*Chain, replicas)
	for k := range chains {
		chains[k] = NewChain(leader.authority)
		if err := chains[k].OpenLog(filepath.Join(dir, fmt.Sprintf("r%d.chain", k))); err != nil {
			t.Fatal(err)
		}
		defer chains[k].CloseLog()
	}
	// Commit the first block alone and the other two as one group.
	for _, span := range [][2]int{{0, 1}, {1, 3}} {
		batch := make([][]*Block, replicas)
		for k := range batch {
			for i := span[0]; i < span[1]; i++ {
				b := leader.blocks[i]
				recs := b.Records
				if k == replicas-1 {
					recs = append([]Record(nil), recs...)
				}
				batch[k] = append(batch[k], &Block{Header: b.Header, Records: recs, Sig: b.Sig})
			}
		}
		for k, err := range ImportBatches(chains, batch) {
			if err != nil {
				t.Fatalf("replica %d: %v", k, err)
			}
		}
	}
	for k, c := range chains {
		if !bytes.Equal(readBytes(t, c.log.path), readBytes(t, want)) {
			t.Errorf("replica %d's file differs from WriteFile of the same blocks", k)
		}
		encoded, rooted := c.log.buf != nil, c.leafBuf != nil
		if wantOwn := k == 0 || k == replicas-1; encoded != wantOwn || rooted != wantOwn {
			t.Errorf("replica %d encoded its own frames: %v, computed a Merkle root: %v, want %v",
				k, encoded, rooted, wantOwn)
		}
		if c.Length() != 3 || c.TotalRecords() != 303 {
			t.Errorf("replica %d: %d blocks, %d records", k, c.Length(), c.TotalRecords())
		}
	}
}

// Every import check still runs on each replica before anything is written.
func TestImportBatchesChecksEveryReplica(t *testing.T) {
	leader, signer := newSignedChain(t)
	sealRound(t, leader, signer, 0, 4)
	b := leader.blocks[0]
	good, bad := NewChain(leader.authority), NewChain(leader.authority)
	dir := t.TempDir()
	for _, c := range []*Chain{good, bad} {
		if err := c.OpenLog(filepath.Join(dir, fmt.Sprintf("%p.chain", c))); err != nil {
			t.Fatal(err)
		}
		defer c.CloseLog()
	}
	forged := *b
	forged.Sig = Signature{R: b.Sig.S, S: b.Sig.R}
	errs := ImportBatches([]*Chain{good, bad}, [][]*Block{
		{{Header: b.Header, Records: b.Records, Sig: b.Sig}},
		{&forged},
	})
	if errs[0] != nil || !errors.Is(errs[1], ErrBadSignature) {
		t.Fatalf("errors = %v, want nil and a bad signature", errs)
	}
	if good.Length() != 1 || bad.Length() != 0 || bad.log.size != int64(len(fileHeader)) {
		t.Fatalf("good %d blocks, bad %d blocks and %d bytes", good.Length(), bad.Length(), bad.log.size)
	}
}

// A later replica reuses only what passed on an earlier one holding the very
// same group, and the signature result only under the same *Authority; a
// replica whose group differs in any way is checked in full, and a refused
// replica's file gains nothing.
func TestImportBatchesSharesOnlyPassedByteChecks(t *testing.T) {
	leader, signer := newSignedChain(t)
	for round := 0; round < 3; round++ {
		sealRound(t, leader, signer, round, 50+round)
	}
	forkBlock, err := NewChain(leader.authority).Seal(signer, t0, []Record{mkRecord("d9", 1)})
	if err != nil {
		t.Fatal(err)
	}
	stranger := NewAuthority()
	if err := stranger.Admit("someone-else", signer.Public()); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(t.TempDir(), "written.chain")
	if err := leader.WriteFile(want); err != nil {
		t.Fatal(err)
	}

	const replicas = 4
	cases := []struct {
		name string
		// edit changes the replicas' chains or groups from four empty
		// chains of the leader's authority taking the leader's blocks.
		edit func(t *testing.T, chains []*Chain, groups [][]*Block)
		// wantErr[k] is the error replica k is refused with (nil: lands);
		// wantRooted[k] whether it computed a Merkle root itself.
		wantErr    []error
		wantRooted []bool
	}{
		{name: "shared group onto a diverged head",
			edit: func(t *testing.T, chains []*Chain, groups [][]*Block) {
				head := *forkBlock
				if err := chains[0].Import(&head); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:    []error{ErrBadPrevHash, nil, nil, nil},
			wantRooted: []bool{false, true, false, false}},
		{name: "same slice under a re-signed header with an altered root",
			edit: func(t *testing.T, chains []*Chain, groups [][]*Block) {
				b := groups[2][2]
				b.Header.MerkleRoot[0] ^= 1
				sig, err := signer.Sign(HashHeader(b.Header))
				if err != nil {
					t.Fatal(err)
				}
				b.Sig = sig
			},
			wantErr:    []error{nil, nil, ErrBadMerkleRoot, nil},
			wantRooted: []bool{true, false, true, false}},
		{name: "same slice and signature under an altered root",
			edit: func(t *testing.T, chains []*Chain, groups [][]*Block) {
				groups[1][2].Header.MerkleRoot[0] ^= 1
			},
			wantErr:    []error{nil, ErrBadMerkleRoot, nil, nil},
			wantRooted: []bool{true, true, false, false}},
		{name: "copied slice with one altered record",
			edit: func(t *testing.T, chains []*Chain, groups [][]*Block) {
				b := groups[3][2]
				b.Records = append([]Record(nil), b.Records...)
				b.Records[7].Seq++
			},
			wantErr:    []error{nil, nil, nil, ErrBadMerkleRoot},
			wantRooted: []bool{true, false, false, true}},
		{name: "a chain of another authority verifies the signatures itself",
			edit: func(t *testing.T, chains []*Chain, groups [][]*Block) {
				chains[0].authority = stranger
				chains[2].authority = stranger
			},
			wantErr:    []error{ErrUnknownAuthority, nil, ErrUnknownAuthority, nil},
			wantRooted: []bool{true, false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			chains, groups := make([]*Chain, replicas), make([][]*Block, replicas)
			for k := range chains {
				chains[k] = NewChain(leader.authority)
				if err := chains[k].OpenLog(filepath.Join(dir, fmt.Sprintf("r%d.chain", k))); err != nil {
					t.Fatal(err)
				}
				defer chains[k].CloseLog()
				for _, b := range leader.blocks {
					groups[k] = append(groups[k], &Block{Header: b.Header, Records: b.Records, Sig: b.Sig})
				}
			}
			tc.edit(t, chains, groups)
			sizes := make([]int64, replicas)
			for k, c := range chains {
				c.leafBuf, sizes[k] = nil, c.log.size
			}
			for k, err := range ImportBatches(chains, groups) {
				c := chains[k]
				if tc.wantErr[k] == nil {
					if err != nil {
						t.Errorf("replica %d: %v", k, err)
					} else if !bytes.Equal(readBytes(t, c.log.path), readBytes(t, want)) {
						t.Errorf("replica %d's file differs from WriteFile of the leader's blocks", k)
					}
				} else if !errors.Is(err, tc.wantErr[k]) || c.log.size != sizes[k] {
					t.Errorf("replica %d: err %v, file %d -> %d bytes; want %v and nothing written",
						k, err, sizes[k], c.log.size, tc.wantErr[k])
				}
				if rooted := c.leafBuf != nil; rooted != tc.wantRooted[k] {
					t.Errorf("replica %d computed a Merkle root: %v, want %v", k, rooted, tc.wantRooted[k])
				}
			}
		})
	}
}

// After 10 000 seal rounds of 100 records a file-backed chain holds no
// record: headers, signatures and the count only.
func TestFileBackedChainRetainsNoRecords(t *testing.T) {
	c, signer, path := fileBackedChain(t, "agg1.chain")
	const rounds, perRound = 10000, 100
	recs := make([]Record, perRound)
	for round := 0; round < rounds; round++ {
		for i := range recs {
			recs[i] = mkRecord(fmt.Sprintf("d%02d", i), uint64(round*perRound+i+1))
		}
		if _, err := c.Seal(signer, t0.Add(time.Duration(round)*time.Second), recs); err != nil {
			t.Fatal(err)
		}
	}
	retained := 0
	for _, b := range c.blocks {
		retained += len(b.Records)
	}
	if retained != 0 {
		t.Fatalf("file-backed chain retains %d records", retained)
	}
	if c.Length() != rounds || c.TotalRecords() != rounds*perRound {
		t.Fatalf("%d blocks, %d records; want %d, %d", c.Length(), c.TotalRecords(), rounds, rounds*perRound)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != c.log.size {
		t.Fatalf("file is %v bytes (%v), the log says %d", st.Size(), err, c.log.size)
	}
}

// What needs released records says so instead of answering from nothing.
func TestFileBackedChainRefusesRecordQueries(t *testing.T) {
	c, signer, path := fileBackedChain(t, "agg1.chain")
	sealRound(t, c, signer, 0, 3)
	sealRound(t, c, signer, 1, 2)
	if c.Length() != 2 || c.TotalRecords() != 5 || c.Head().Records != nil {
		t.Fatalf("%d blocks, %d records, head records %v", c.Length(), c.TotalRecords(), c.Head().Records)
	}
	_, blockErr := c.Block(0)
	_, verifyErr := c.Verify()
	_, recsErr := c.RecordsOf("d1")
	_, proofErr := c.ProveRecord(1, 0)
	writeErr := c.WriteFile(filepath.Join(t.TempDir(), "copy.chain"))
	for name, err := range map[string]error{
		"Block": blockErr, "Verify": verifyErr, "RecordsOf": recsErr, "ProveRecord": proofErr, "WriteFile": writeErr,
	} {
		if !errors.Is(err, ErrReleased) {
			t.Errorf("%s: err = %v, want ErrReleased", name, err)
		}
	}
	if _, err := c.AppendUnsealed("agg1", t0, []Record{mkRecord("d1", 9)}); err == nil {
		t.Error("AppendUnsealed accepted on a file-backed chain")
	}
	// The file answers all of them.
	got, err := ReadFile(path, c.authority)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Verify(); err != nil || got.TotalRecords() != 5 {
		t.Fatalf("file: %d records, %v", got.TotalRecords(), err)
	}
	// A closed log takes no further block, and the chain is left as it was.
	if err := c.CloseLog(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(signer, t0, []Record{mkRecord("d1", 10)}); err == nil || c.Length() != 2 {
		t.Fatalf("seal after close: %v, %d blocks", err, c.Length())
	}
}

// OpenLog never replaces an existing file.
func TestOpenLogRefusesExistingFile(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildChainFile(t, dir, "agg1.chain", 2)
	before := readBytes(t, path)
	if err := NewChain(nil).OpenLog(path); err == nil {
		t.Fatal("OpenLog opened an existing chain file")
	}
	if !bytes.Equal(before, readBytes(t, path)) {
		t.Fatal("a refused OpenLog changed the file")
	}
}

// The durable hook sees each sync's height.
func TestOnDurableReportsEachSync(t *testing.T) {
	c, signer, _ := fileBackedChain(t, "agg1.chain")
	var heights []int
	c.OnDurable(func(blocks, records int) { heights = append(heights, blocks*1000+records) })
	sealRound(t, c, signer, 0, 3)
	sealRound(t, c, signer, 1, 4)
	if len(heights) != 2 || heights[0] != 1003 || heights[1] != 2007 {
		t.Fatalf("durable reports = %v", heights)
	}
}
