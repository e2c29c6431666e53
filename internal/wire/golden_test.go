package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// wireGoldenSHA256 pins the wire format: the SHA-256 over every fuzzSeeds()
// frame followed by every replStreamFrames() frame, concatenated in order. It
// was recorded at the commit before the decoders were rewritten around the
// sticky-error cursor; a change here means an encoder emits different bytes
// (or a seed changed — re-record only then, and say so in the commit).
const wireGoldenSHA256 = "cde93cb9c302338167d0dea12d8f78961fc06942300772c58b402a00f161b47f"

func TestWireGoldenBytes(t *testing.T) {
	h := sha256.New()
	for _, frames := range [][][]byte{fuzzSeeds(), replStreamFrames()} {
		for _, f := range frames {
			h.Write(f)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wireGoldenSHA256 {
		t.Fatalf("wire encoding changed: sha256 %s, want %s", got, wireGoldenSHA256)
	}
}
