package smr_test

import (
	"encoding/hex"
	"testing"

	"atum/internal/smr"
)

// TestOpsDigestGolden pins the bytes OpsDigest hashes: every SMR signature
// binds to this digest, so members on two builds must compute the same one.
// The digests were computed by the hand-rolled encoder OpsDigest replaced.
func TestOpsDigestGolden(t *testing.T) {
	ops := []smr.Operation{{Proposer: 7, OpID: 1, Data: []byte("bcast")}, {Proposer: 1 << 40, OpID: ^uint64(0)}}
	for _, c := range []struct {
		got  [32]byte
		want string
	}{
		{smr.OpsDigest(3, 9, 42, 5, ops), "9b4ae5a01ffa0cc584c95c20d41bb1b05f563c7032c50c4600a2eea335464182"},
		{smr.OpsDigest(0, 0, 0, 0, nil), "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("OpsDigest = %s, want %s", got, c.want)
		}
	}
}
