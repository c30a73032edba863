//go:build amd64 && !amd64.v3

// Pinned to amd64 below the v3 microarchitecture level: there the Go
// compiler never fuses a multiply and an add, so every float64 operation
// of training rounds exactly as written. Other targets (and GOAMD64=v3)
// may emit fused multiply-adds and legitimately train different weights.

package safemon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"repro/internal/nn"
)

// contextAwareWeightsSHA256 is the SHA-256 of every trained parameter of
// the context-aware fixture (quickOptions on the shared test fold). It was
// computed before the LSTM training kernels were restructured; the BPTT
// split, the 8-lane gate kernels, the two-phase forward and the concurrent
// stage fits must all reproduce it bit for bit.
const contextAwareWeightsSHA256 = "d100b5566f8f3201fef2f745f6ab4ac5bac2ce46f892e6cd4f1e75d6d3bd830e"

func hashNetwork(h hash.Hash, tag string, net *nn.Network) {
	h.Write([]byte(tag))
	var buf [8]byte
	for _, p := range net.Params() {
		h.Write([]byte(p.Name))
		for _, w := range p.W {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
			h.Write(buf[:])
		}
	}
}

// TestContextAwareWeightsPinned fits the context-aware backend end to end
// (gesture classifier and error library, trained concurrently) and checks
// the trained weights against the pinned hash.
func TestContextAwareWeightsPinned(t *testing.T) {
	d := fittedDetector(t, "context-aware").(*contextDetector)
	h := sha256.New()
	hashNetwork(h, "gesture", d.mon.Gestures.Net)
	lib := d.mon.Errors
	keys := make([]int, 0, len(lib.PerGesture))
	for k := range lib.PerGesture {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		if net := lib.PerGesture[k]; net != nil {
			hashNetwork(h, "head"+string(rune('A'+k)), net)
		}
	}
	if lib.Global != nil {
		hashNetwork(h, "global", lib.Global)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != contextAwareWeightsSHA256 {
		t.Fatalf("trained context-aware weights hash %s, pinned %s", got, contextAwareWeightsSHA256)
	}
}
