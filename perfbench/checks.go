package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"napawine"
)

// chunkBytes is the stream's chunk size: every served chunk moves exactly
// this much video.
const chunkBytes = 48000

// checkLedger verifies one run's accounting identities: video bytes are
// whole chunks, the per-AS receive totals sum to the swarm total, intra-AS
// video never exceeds it, and the registry placed every observed peer.
func checkLedger(r *napawine.Result) error {
	led := r.Ledger
	if led == nil {
		return fmt.Errorf("%s: no ledger", r.App)
	}
	if r.VideoBytes != r.ChunksServed*chunkBytes {
		return fmt.Errorf("%s: video bytes %d != chunks served %d x %d", r.App, r.VideoBytes, r.ChunksServed, chunkBytes)
	}
	var byAS int64
	for _, v := range led.VideoRxByAS {
		byAS += v
	}
	if byAS != led.VideoTotal {
		return fmt.Errorf("%s: per-AS video %d != video total %d", r.App, byAS, led.VideoTotal)
	}
	if led.VideoIntraAS > led.VideoTotal {
		return fmt.Errorf("%s: intra-AS video %d > video total %d", r.App, led.VideoIntraAS, led.VideoTotal)
	}
	if r.Unlocated != 0 {
		return fmt.Errorf("%s: %d unlocated peers", r.App, r.Unlocated)
	}
	return nil
}

// sortObservations orders observations by (probe, peer), the identity of
// one observation; the analysis layer emits them in map order.
func sortObservations(obs []napawine.Observation) {
	slices.SortFunc(obs, func(a, b napawine.Observation) int {
		if c := a.Probe.Compare(b.Probe); c != 0 {
			return c
		}
		return a.Peer.Compare(b.Peer)
	})
}

// sameObservations reports the first difference between two sorted
// observation sets, nil when they are identical.
func sameObservations(got, want []napawine.Observation) error {
	if len(got) != len(want) {
		return fmt.Errorf("replayed %d observations, the run made %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("observation %d (probe %v, peer %v) differs: replay %+v, run %+v",
				i, want[i].Probe, want[i].Peer, got[i], want[i])
		}
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// reference is a workload's expected output at one seed: the digest of
// its rendered output and the engine events one iteration processes.
type reference struct {
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
	Events uint64 `json:"events"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReferences() (map[string]reference, error) {
	refs := make(map[string]reference)
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}
