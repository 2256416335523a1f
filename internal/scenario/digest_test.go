package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// rpcDigestSpec is a brief lossy closed-loop RPC run between two machines
// of one stack personality.
func rpcDigestSpec(stack string) string {
	return fmt.Sprintf(`{
  "name": "rpc-%[1]s",
  "seed": 4101,
  "duration_us": 5000,
  "warmup_us": 200,
  "topology": {"kind": "testbed", "switch": {"loss_prob": 0.01}},
  "machines": [
    {"name": "server", "stack": %[1]q, "cores": 2},
    {"name": "client", "stack": %[1]q, "cores": 2}
  ],
  "workloads": [
    {"kind": "rpc", "rpc": {"server": "server", "port": 9000, "clients": ["client"], "conns": 8, "req_bytes": 64, "app_cycles": 300}}
  ]
}`, stack)
}

// TestPayloadDigestsPinned pins the SHA-256 of the canonical payload of a
// few short specs to values recorded before the event core's last
// rework. A change that keeps every gate green but moves a single
// same-instant tie (and so any simulated result) fails here. Update the
// constants only for a deliberate model change, and say so in the change
// description.
func TestPayloadDigestsPinned(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"bulk-loss", bulkSpec(), "2f589652ac9e83817af9faf105694939732d4ceb14c510b229fb2fc353873f80"},
		{"incast-small", incastSpec(), "71f500be7675d0a4141b98ad6480697a289d67349fdb54daa474b0169daf6359"},
		{"rpc-flextoe", rpcDigestSpec(StackFlexTOE), "9e78aaef9932f34a2548a3b50fa95616681ee7fe4ecf3bfd21c5b3834082f6bd"},
		{"rpc-linux", rpcDigestSpec(StackLinux), "8616320ff7b46ab56fe99ad13f2486303fa7bfb58bcb763b440fe5174043c1c5"},
		{"rpc-tas", rpcDigestSpec(StackTAS), "2c303b83ee1eb053b0efbaf8d256dd0ceea282d1022eb61c5bc197ea4764aaab"},
		{"rpc-chelsio", rpcDigestSpec(StackChelsio), "f97512eee7db205b1e2715e3f23eaea931d00ff9b489ad055443b729f4ce8af7"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(mustRun(t, tc.spec, nil).Canonical())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: payload digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
