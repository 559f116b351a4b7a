package dynamic

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGeneratorsGolden pins both trace generators' output byte for
// byte: the churn traces feed D1 and the cluster-read benchmark's
// write cycles (GenerateMutations), the fault traces feed D2, so any
// change to a generator's RNG draws, op mix or name base must show up
// here, not as a silently different benchmark.
func TestGeneratorsGolden(t *testing.T) {
	cases := []struct {
		n, k            int
		graphSeed, seed uint64
		churn, fault    string
	}{
		{48, 60, 13, 1, "1ebd0fb678f034f8e7b88b4c4966177e5f3af293c4b4efbebfefa7ca0498c2bd", "ad7dc7616e2bc621a04565f850be69452cd36ad299aca2ec5ae5ba8d781163a4"},
		{80, 150, 9, 42, "6446eb081f0f422a94fba53553f6aaf7a5791ac9e9ff01fa557346e83339a761", "1f6637d2fd6c998293a032f36e84c24002bdd5e22ada2e16ca20fb0287053af0"},
		{128, 200, 5, 7, "67a6b096a9c2832921b092747476e9ad96d59d9a2440560180b9dbab0ff5da94", "dc8d9969d8c87f208251f806fbbd5ec3f5f6c034e3d71eb88c2a3804a8bab780"},
		{256, 300, 3, 99, "bdd43cba3f4f754c0af805e821094d2b67123556e07aa93ed0a84a146a409f6e", "fdd3f2a56f977aa488a1b89eb7024c3b699e7138267b029b9ca4091dacab355e"},
	}
	hash := func(muts []Mutation) string {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, muts); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	for _, c := range cases {
		g := testGraph(t, c.n, c.graphSeed)
		muts, err := GenerateTrace(g, c.k, c.seed)
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", c.n, c.seed, err)
		}
		if got := hash(muts); got != c.churn {
			t.Errorf("GenerateTrace(gnp n=%d seed=%d, k=%d, seed=%d) hash %s, want %s", c.n, c.graphSeed, c.k, c.seed, got, c.churn)
		}
		muts, _, err = GenerateFaultTrace(g, c.k, c.seed, DefaultTraceProfile())
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", c.n, c.seed, err)
		}
		if got := hash(muts); got != c.fault {
			t.Errorf("GenerateFaultTrace(gnp n=%d seed=%d, k=%d, seed=%d) hash %s, want %s", c.n, c.graphSeed, c.k, c.seed, got, c.fault)
		}
	}
}
