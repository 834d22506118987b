// Package ctrlplane models a physical control plane for the dispatch
// tier: the messages that keep dispatchers informed — JIQ idle-token
// reports, jsq/pod(d) queue-length queries, and inter-dispatcher
// counter-sync frames — travel over the same kind of faulty links the
// netfault layer gives dispatch messages (per-link latency, loss,
// duplication, partitions) instead of being exchanged instantaneously
// and losslessly.
//
// PR 9's scalable policies read an oracle cluster.StateView; with this
// layer enabled they act on stale, lossy state and pay for every query
// round-trip in dispatch latency. The robustness mechanisms that make
// that survivable live here too: token leases with expiry and idle
// re-report, per-decision query timeouts with keep-previous fallback,
// idempotent dedup of duplicated tokens and sync frames, and versioned
// bounded-staleness counter-sync (a partitioned replica degrades to its
// private state and rejoins monotonically).
//
// All randomness comes from named substreams of the run's root seed
// ("ctrl.link"/i for computer i's control link, "ctrl.sync"/k for
// replica k's sync frames), derived only when the layer is enabled, so
// ctrl-off runs remain bit-identical to the unmodified engine. The
// plane runtime (plane.go) is wired by internal/cluster.
package ctrlplane

import (
	"errors"
	"fmt"
	"math"

	"heterosched/internal/netfault"
)

// Config is the control-plane fault specification. The zero value (and
// nil) disables the layer entirely: no substreams are derived, no
// events are scheduled, and runs are bit-identical to a build without
// the subsystem.
type Config struct {
	// Link is the default fault model for every dispatcher↔computer
	// control link (token reports travel computer→dispatcher, queries
	// dispatcher→computer→dispatcher; both directions share the link).
	// Inter-dispatcher sync frames use the same default model.
	Link netfault.Link
	// PerLink overrides the default model for specific computer
	// indices. Sync frames always use the default Link.
	PerLink map[int]netfault.Link
	// Partitions are deterministic windows cutting computer control
	// links: token reports and queries to/from the listed computers are
	// blocked. Empty Links means every computer.
	Partitions []netfault.Partition
	// SyncPartitions are deterministic windows isolating dispatcher
	// replicas from the sync gossip: frames from or to the listed
	// replica indices are blocked. Empty Links means every replica (no
	// sync at all during the window).
	SyncPartitions []netfault.Partition
	// Lease is the idle-token lease in seconds: a token expires this
	// long after it is delivered, and an idle computer re-reports on a
	// lease cadence so a lost token no longer strands it forever. Zero
	// means no leases (tokens never expire and are never re-reported).
	Lease float64
	// QueryTO is the per-decision query timeout in seconds: a decision
	// waits at most this long for its queue-length probes; probes that
	// are lost, blocked or late fall back to the replica's cached view.
	// Required whenever the control links can lose or block messages.
	// Zero means decisions wait for every probe round-trip.
	QueryTO float64
}

// Enabled reports whether any part of the control-plane layer is
// active. A nil or zero-valued Config is inert.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return !c.Link.Perfect() || len(c.PerLink) > 0 || len(c.Partitions) > 0 ||
		len(c.SyncPartitions) > 0 || c.Lease != 0 || c.QueryTO != 0
}

// LinkFor returns the resolved fault model for computer i's control
// link.
func (c *Config) LinkFor(i int) netfault.Link {
	if l, ok := c.PerLink[i]; ok {
		return l
	}
	return c.Link
}

// Lossy reports whether any control message can vanish: a positive
// loss probability on any link, or any partition window.
func (c *Config) Lossy(computers int) bool {
	if len(c.Partitions) > 0 || len(c.SyncPartitions) > 0 {
		return true
	}
	if c.Link.Loss > 0 {
		return true
	}
	for i := 0; i < computers; i++ {
		if c.LinkFor(i).Loss > 0 {
			return true
		}
	}
	return false
}

// Validate checks the configuration against a cluster of the given
// size and replicas dispatcher replicas (pass replicas <= 0 when the
// replica count is not yet known; sync-partition indices are then only
// checked for non-negativity).
func (c *Config) Validate(computers, replicas int) error {
	if c == nil || !c.Enabled() {
		return nil
	}
	if computers <= 0 {
		return errors.New("ctrlplane: validate needs a positive computer count")
	}
	if err := c.Link.Validate("default control link"); err != nil {
		return err
	}
	if err := netfault.ValidateLinks("ctrlplane: ", "control link", "cuts control link", c.PerLink, c.Partitions, computers); err != nil {
		return err
	}
	if err := netfault.ValidateLinks("ctrlplane: sync ", "", "isolates replica", nil, c.SyncPartitions, replicas); err != nil {
		return err
	}
	if c.Lease < 0 || math.IsNaN(c.Lease) || math.IsInf(c.Lease, 0) {
		return fmt.Errorf("ctrlplane: token lease %g invalid (must be >= 0 and finite)", c.Lease)
	}
	if c.QueryTO < 0 || math.IsNaN(c.QueryTO) || math.IsInf(c.QueryTO, 0) {
		return fmt.Errorf("ctrlplane: query timeout %g invalid (must be >= 0 and finite)", c.QueryTO)
	}
	// A probe that can vanish (loss or partition) would hang its
	// decision forever without a timeout to fall back on; refuse the
	// combination, mirroring netfault's loss-requires-acks rule. Token
	// loss without a lease is deliberately allowed — measuring that
	// degradation is the point of the experiment.
	if c.QueryTO <= 0 && c.Lossy(computers) {
		return errors.New("ctrlplane: control-link loss or partitions require a query timeout (set QueryTO / qto:)")
	}
	return nil
}

// Stats are the control-plane counters for one run, split into the
// token, query and sync channels. Token conservation (up to loss) is
// the ledger the chaos harness asserts:
//
//	TokensAccepted == TokensSpent + TokensExpired + TokensDiscarded + TokensExtant
//
// and exactly-once under duplication:
//
//	TokensDelivered == TokensAccepted + TokensDeduped.
type Stats struct {
	// TokensSent counts logical idle-token reports; TokensDup extra
	// transit copies; TokensLost copies lost or partition-blocked;
	// TokensDelivered copies that reached a dispatcher replica.
	TokensSent, TokensDup, TokensLost, TokensDelivered int64
	// TokensAccepted counts delivered copies that installed a token;
	// TokensDeduped copies rejected because the replica already held
	// one for the computer (the duplicate-delivery dedup).
	TokensAccepted, TokensDeduped int64
	// TokensSpent, TokensExpired and TokensDiscarded count dispatcher-
	// side token outcomes: spent on a dispatch, dropped at pop time
	// past its lease, or dropped at pop time because the holder was
	// down. TokensExtant is the number still held when the run ended.
	TokensSpent, TokensExpired, TokensDiscarded, TokensExtant int64
	// Queries counts queue-length probes; QueriesLost probes lost or
	// blocked in either direction; QueriesLate replies past the query
	// timeout; StaleReads probes answered from the replica's cache;
	// BlindReads cache misses with no previous observation at all.
	Queries, QueriesLost, QueriesLate, StaleReads, BlindReads int64
	// Decisions counts dispatch decisions that issued at least one
	// probe; DecisionTimeouts those that waited out the query timeout.
	// QueryWait accumulates the per-decision wait charged to dispatch
	// latency (seconds).
	Decisions, DecisionTimeouts int64
	QueryWait                   float64
	// SyncSent counts logical counter-sync frames; SyncDup extra
	// copies; SyncLost copies lost or blocked; SyncDelivered copies
	// that arrived; SyncApplied frames merged into the receiver;
	// SyncStale frames rejected by the per-sender version check
	// (duplicates and out-of-order stragglers).
	SyncSent, SyncDup, SyncLost, SyncDelivered, SyncApplied, SyncStale int64
}

// Add accumulates o's counters into s (for summing across
// replications). A nil o is a no-op.
func (s *Stats) Add(o *Stats) {
	if o == nil {
		return
	}
	s.TokensSent += o.TokensSent
	s.TokensDup += o.TokensDup
	s.TokensLost += o.TokensLost
	s.TokensDelivered += o.TokensDelivered
	s.TokensAccepted += o.TokensAccepted
	s.TokensDeduped += o.TokensDeduped
	s.TokensSpent += o.TokensSpent
	s.TokensExpired += o.TokensExpired
	s.TokensDiscarded += o.TokensDiscarded
	s.TokensExtant += o.TokensExtant
	s.Queries += o.Queries
	s.QueriesLost += o.QueriesLost
	s.QueriesLate += o.QueriesLate
	s.StaleReads += o.StaleReads
	s.BlindReads += o.BlindReads
	s.Decisions += o.Decisions
	s.DecisionTimeouts += o.DecisionTimeouts
	s.QueryWait += o.QueryWait
	s.SyncSent += o.SyncSent
	s.SyncDup += o.SyncDup
	s.SyncLost += o.SyncLost
	s.SyncDelivered += o.SyncDelivered
	s.SyncApplied += o.SyncApplied
	s.SyncStale += o.SyncStale
}
