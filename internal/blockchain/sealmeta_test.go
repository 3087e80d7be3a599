package blockchain

import (
	"bytes"
	"math/big"
	"testing"
	"time"
)

func testSealMeta(t testing.TB) (Header, Signature) {
	t.Helper()
	h := Header{
		Index:     7,
		Timestamp: time.Date(2020, 4, 29, 10, 0, 0, 123456789, time.UTC),
		Producer:  "agg-3",
	}
	for i := range h.PrevHash {
		h.PrevHash[i] = byte(i)
		h.MerkleRoot[i] = byte(255 - i)
	}
	return h, Signature{R: big.NewInt(0xdeadbeef), S: big.NewInt(0x1337)}
}

func TestSealMetaRoundTrip(t *testing.T) {
	h, sig := testSealMeta(t)
	b, err := EncodeSealMeta(h, sig)
	if err != nil {
		t.Fatal(err)
	}
	h2, sig2, err := DecodeSealMeta(b)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Fatalf("header round trip:\n got %+v\nwant %+v", h2, h)
	}
	if sig2.R.Cmp(sig.R) != 0 || sig2.S.Cmp(sig.S) != 0 {
		t.Fatalf("signature round trip: got (%v, %v)", sig2.R, sig2.S)
	}
}

func TestEncodeSealMetaRequiresSignature(t *testing.T) {
	h, sig := testSealMeta(t)
	if _, err := EncodeSealMeta(h, Signature{R: sig.R}); err == nil {
		t.Fatal("nil S encoded")
	}
	if _, err := EncodeSealMeta(h, Signature{S: sig.S}); err == nil {
		t.Fatal("nil R encoded")
	}
	// The encoding carries magnitudes only; r and s of a real signature are
	// in [1, n-1].
	if _, err := EncodeSealMeta(h, Signature{R: big.NewInt(-0xff), S: sig.S}); err == nil {
		t.Fatal("negative R encoded")
	}
	if _, err := EncodeSealMeta(h, Signature{R: sig.R, S: new(big.Int)}); err == nil {
		t.Fatal("zero S encoded")
	}
}

// TestDecodeSealMetaRejectsCorruptInputs drives every malformed-blob path:
// the consensus layer agrees on these bytes verbatim, so a corrupt blob
// must fail loudly at decode, never produce a half-valid header that a
// replica would try to import.
func TestDecodeSealMetaRejectsCorruptInputs(t *testing.T) {
	h, sig := testSealMeta(t)
	valid, err := EncodeSealMeta(h, sig)
	if err != nil {
		t.Fatal(err)
	}
	hdr := h.appendMarshal(nil)
	sigAt := len(hdr) // R's length byte; R is 4 bytes, S 2
	if !bytes.Equal(valid[sigAt:], []byte{4, 0xde, 0xad, 0xbe, 0xef, 2, 0x13, 0x37}) {
		t.Fatalf("signature bytes = %x", valid[sigAt:])
	}
	with := func(tail ...byte) []byte { return append(append([]byte(nil), hdr...), tail...) }
	cases := map[string][]byte{
		"empty":                    nil,
		"the retired JSON blob":    []byte(`{"index":7,"prev_hash":"","merkle_root":"","timestamp_ns":0,"producer":"p","sig_r":"1","sig_s":"1"}`),
		"truncated in the index":   {0x80},
		"index overflows":          bytes.Repeat([]byte{0xff}, 11),
		"truncated in the hashes":  valid[:40],
		"truncated in producer":    valid[:sigAt-2],
		"producer overruns":        append(append([]byte(nil), hdr[:len(hdr)-6]...), 0x7f, 'a'),
		"truncated before sig":     hdr,
		"truncated in sig r":       valid[:sigAt+3],
		"truncated before sig s":   valid[:sigAt+5],
		"truncated in sig s":       valid[:len(valid)-1],
		"empty sig r":              with(0, 2, 0x13, 0x37),
		"empty sig s":              with(4, 0xde, 0xad, 0xbe, 0xef, 0),
		"leading zero in sig r":    with(2, 0x00, 0x01, 2, 0x13, 0x37),
		"oversized sig r":          with(append(append([]byte{33}, bytes.Repeat([]byte{1}, 33)...), 2, 0x13, 0x37)...),
		"trailing byte":            append(append([]byte(nil), valid...), 0),
		"two blobs back to back":   append(append([]byte(nil), valid...), valid...),
		"a whole chain-file frame": appendFrame(nil, &Block{Header: h, Sig: sig, Records: []Record{mkRecord("d", 1)}}),
	}
	for name, in := range cases {
		if _, _, err := DecodeSealMeta(in); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzDecodeSealMeta asserts decode never panics on arbitrary bytes, and
// that anything it accepts re-encodes to an equivalent blob (no lossy
// accepts: a decoded header/signature must survive the agree-and-import
// round trip byte-equivalently).
func FuzzDecodeSealMeta(f *testing.F) {
	h, sig := testSealMeta(f)
	valid, err := EncodeSealMeta(h, sig)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	f.Add(append(h.appendMarshal(nil), 0, 0))
	f.Add(append(h.appendMarshal(nil), 2, 0, 1, 1, 1))
	f.Add([]byte(`{"sig_r":"-ff","sig_s":"0"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, sig, err := DecodeSealMeta(b)
		if err != nil {
			return
		}
		blob, err := EncodeSealMeta(h, sig)
		if err != nil {
			t.Fatalf("decoded meta does not re-encode: %v", err)
		}
		h2, sig2, err := DecodeSealMeta(blob)
		if err != nil {
			t.Fatalf("re-encoded meta does not decode: %v", err)
		}
		if h2 != h || sig2.R.Cmp(sig.R) != 0 || sig2.S.Cmp(sig.S) != 0 {
			t.Fatalf("lossy round trip:\n got %+v %v %v\nwant %+v %v %v", h2, sig2.R, sig2.S, h, sig.R, sig.S)
		}
	})
}
