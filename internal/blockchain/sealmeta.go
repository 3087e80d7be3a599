package blockchain

import (
	"errors"
	"fmt"
)

// EncodeSealMeta serializes a prepared block's header and signature: the
// metadata blob the replicated-aggregator tier agrees on through consensus
// alongside the record batch, so every replica reconstructs and imports a
// byte-identical block. The bytes are the chain file's header+signature
// encoding (see file.go).
func EncodeSealMeta(h Header, sig Signature) ([]byte, error) {
	if sig.R == nil || sig.S == nil || sig.R.Sign() <= 0 || sig.S.Sign() <= 0 {
		return nil, errors.New("blockchain: seal meta requires a signature")
	}
	return appendHeaderSig(make([]byte, 0, 192), h, sig), nil
}

// DecodeSealMeta parses the blob EncodeSealMeta produced.
func DecodeSealMeta(b []byte) (Header, Signature, error) {
	h, sig, rest, err := readHeaderSig(b, nil)
	if err != nil {
		return Header{}, Signature{}, fmt.Errorf("blockchain: seal meta: %w", err)
	}
	if sig.R == nil || sig.S == nil {
		return Header{}, Signature{}, errors.New("blockchain: seal meta: missing signature")
	}
	if len(rest) != 0 {
		return Header{}, Signature{}, fmt.Errorf("blockchain: seal meta: %d trailing bytes", len(rest))
	}
	return h, sig, nil
}
