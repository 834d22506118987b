package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heterosched/internal/dispatch"
)

// This file parses the sharded-dispatch flags: -dispatchers "K[:rr|hash]"
// selects the replica count and arrival routing, -sync "never"|seconds
// the counter-sync cadence of the Algorithm 2 replicas, and -scale N
// tiles a speed vector into the hundreds/thousands of computers the
// scalable-dispatch experiments run at.

// MaxDispatchers bounds the replica count the front ends accept; a run
// has no use for more dispatchers than arrivals per busy period, and an
// absurd K is almost always a typo.
const MaxDispatchers = 1 << 16

// ShardingParams carry the parsed sharded-dispatch configuration.
// The zero value is the paper's single central scheduler.
type ShardingParams struct {
	// Dispatchers is the replica count K (>= 1).
	Dispatchers int
	// ShardBy routes arrivals to replicas (round-robin or job-ID hash).
	ShardBy dispatch.ShardBy
	// SyncEvery is the counter-sync period in simulated seconds for the
	// Algorithm 2 replicas; 0 means never.
	SyncEvery float64
}

// Enabled reports whether the configuration shards at all.
func (p ShardingParams) Enabled() bool { return p.Dispatchers > 1 }

// Validate checks the parameter ranges with flag-oriented messages.
func (p ShardingParams) Validate() error {
	if p.Dispatchers < 0 || p.Dispatchers > MaxDispatchers {
		return fmt.Errorf("-dispatchers %d: replica count must be in [1, %d]", p.Dispatchers, MaxDispatchers)
	}
	if math.IsNaN(p.SyncEvery) || math.IsInf(p.SyncEvery, 0) || p.SyncEvery < 0 {
		return fmt.Errorf("-sync %v: sync period must be a non-negative number of seconds (0 or \"never\" disables)", p.SyncEvery)
	}
	return nil
}

// ParseDispatchersSpec parses "K" or "K:rr" or "K:hash" — the replica
// count with an optional arrival-routing mode (default rr).
func ParseDispatchersSpec(s string) (int, dispatch.ShardBy, error) {
	spec := strings.TrimSpace(s)
	if spec == "" {
		return 1, dispatch.ShardRR, nil
	}
	kPart, byPart, hasBy := strings.Cut(spec, ":")
	k, err := strconv.Atoi(strings.TrimSpace(kPart))
	if err != nil {
		return 0, 0, fmt.Errorf("-dispatchers %q: replica count %q is not an integer", s, kPart)
	}
	if k < 1 || k > MaxDispatchers {
		return 0, 0, fmt.Errorf("-dispatchers %q: replica count must be in [1, %d]", s, MaxDispatchers)
	}
	by := dispatch.ShardRR
	if hasBy {
		by, err = dispatch.ParseShardBy(strings.TrimSpace(byPart))
		if err != nil {
			return 0, 0, fmt.Errorf("-dispatchers %q: %v", s, err)
		}
	}
	return k, by, nil
}

// ParseSyncSpec parses the counter-sync period: "never" (or empty)
// disables it, any positive number is a period in simulated seconds.
// A numeric zero is rejected — a user who types a number wants syncing,
// and a period of 0 would silently mean "never" (say "never" for that).
func ParseSyncSpec(s string) (float64, error) {
	spec := strings.ToLower(strings.TrimSpace(s))
	if spec == "" || spec == "never" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(spec, 64)
	if err != nil {
		return 0, fmt.Errorf("-sync %q: want \"never\" or a period in seconds", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("-sync %q: period must be a positive number of seconds", s)
	}
	if v == 0 {
		return 0, fmt.Errorf("-sync %q: sync period of 0 is ambiguous; use \"never\" to disable counter-sync", s)
	}
	return v, nil
}

// ParseShardingSpecs parses both flags into validated ShardingParams.
func ParseShardingSpecs(dispatchers, sync string) (ShardingParams, error) {
	k, by, err := ParseDispatchersSpec(dispatchers)
	if err != nil {
		return ShardingParams{}, err
	}
	every, err := ParseSyncSpec(sync)
	if err != nil {
		return ShardingParams{}, err
	}
	p := ShardingParams{Dispatchers: k, ShardBy: by, SyncEvery: every}
	return p, p.Validate()
}

// MaxScaledComputers bounds -scale: beyond this the event queue, not the
// dispatcher, is the bottleneck, and a larger value is almost always a
// typo.
const MaxScaledComputers = 1 << 20

// ScaleSpeeds tiles the speed vector cyclically out to n computers, the
// standard construction for scaling the paper's small heterogeneous
// configurations into the hundreds/thousands while preserving the speed
// mix. n = 0 or n <= len(speeds) returns the input unchanged; a
// negative n is an error.
func ScaleSpeeds(speeds []float64, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("-scale %d: must be >= 0 (0 = use -speeds as given)", n)
	}
	if n > MaxScaledComputers {
		return nil, fmt.Errorf("-scale %d: at most %d computers", n, MaxScaledComputers)
	}
	if n <= len(speeds) || len(speeds) == 0 {
		return speeds, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = speeds[i%len(speeds)]
	}
	return out, nil
}
