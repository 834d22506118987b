package cli

import (
	"fmt"
	"strconv"
	"strings"

	"heterosched/internal/dist"
	"heterosched/internal/netfault"
)

// This file parses the network/control-plane fault flags shared by the
// front ends: -netfault, -ackto and -dstate. Like the drift parsers,
// every spec parser returns a clean error on malformed input (they are
// fuzzed in fuzz_test.go); nothing here panics.

// NetfaultParams are the raw network-fault flag values.
type NetfaultParams struct {
	// Netfault is a comma-separated fault item list:
	// loss:P[:LINK] | dup:P[:LINK] | lat:MEAN[:LINK] |
	// crash:MTBF:MTTR | down:drop|buffer[:CAP]|failover |
	// part:FROM:TO[:L1+L2+...]. Empty disables the layer.
	Netfault string
	// AckTO is "TO[:BUDGET[:BASE:MAX[:JITTER]]]": the ack timeout and
	// resubmission loop. Empty disables ack tracking (only valid on
	// loss-free networks).
	AckTO string
	// DState is "acks | ckpt:DT[:CLIENTTO] | cold[:RELEARN[:CLIENTTO]]":
	// the dispatcher state-recovery policy. Requires a crash item.
	DState string
}

// Build assembles the netfault configuration from the three flags and
// validates it against the cluster size. All-empty parameters return
// nil: no fault layer, bit-identical runs.
func (p NetfaultParams) Build(computers int) (*netfault.Config, error) {
	cfg, err := ParseNetfaultSpec(p.Netfault)
	if err != nil {
		return nil, fmt.Errorf("-netfault: %v", err)
	}
	ack, hasAck, err := ParseAckSpec(p.AckTO)
	if err != nil {
		return nil, fmt.Errorf("-ackto: %v", err)
	}
	ds, err := ParseDStateSpec(p.DState)
	if err != nil {
		return nil, fmt.Errorf("-dstate: %v", err)
	}
	if cfg == nil && !hasAck && ds == nil {
		return nil, nil
	}
	if cfg == nil {
		cfg = &netfault.Config{}
	}
	if hasAck {
		cfg.Ack = ack
	}
	if ds != nil {
		if cfg.Dispatcher == nil {
			return nil, fmt.Errorf("-dstate: requires a crash item in -netfault (state recovery applies to a crashing dispatcher)")
		}
		cfg.Dispatcher.Recovery = ds.Recovery
		if ds.CheckpointDT > 0 {
			cfg.Dispatcher.CheckpointDT = ds.CheckpointDT
		}
		if ds.RelearnT > 0 {
			cfg.Dispatcher.RelearnT = ds.RelearnT
		}
		if ds.ClientTO > 0 {
			cfg.Dispatcher.ClientTO = ds.ClientTO
		}
	}
	if err := cfg.Validate(computers); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ParseNetfaultSpec parses a comma-separated network-fault item list:
// link models (loss/dup/lat, with an optional per-link index), the
// dispatcher crash renewal (crash:MTBF:MTTR), the downtime arrival
// policy (down:...) and partition windows (part:...). Empty input
// returns nil (no faults).
func ParseNetfaultSpec(s string) (*netfault.Config, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	cfg := &netfault.Config{}
	var links linkItems
	haveDown := false
	err := eachItem(s, func(item, kind string, parts []string) error {
		switch kind {
		case "loss", "dup", "lat":
			return links.parse(item, kind, parts)
		case "crash":
			if cfg.Dispatcher != nil && cfg.Dispatcher.Uptime != nil {
				return fmt.Errorf("duplicate crash item %q", item)
			}
			if len(parts) != 2 {
				return fmt.Errorf("bad spec %q (want crash:MTBF:MTTR)", item)
			}
			mtbf, err := ParseNum(parts[0], "crash MTBF", false)
			if err != nil {
				return err
			}
			mttr, err := ParseNum(parts[1], "crash MTTR", false)
			if err != nil {
				return err
			}
			if mtbf <= 0 || mttr <= 0 {
				return fmt.Errorf("crash MTBF %g and MTTR %g must be positive", mtbf, mttr)
			}
			// A down item earlier in the list may already have created the
			// dispatcher; fill in the renewal process either way.
			if cfg.Dispatcher == nil {
				cfg.Dispatcher = &netfault.Dispatcher{}
			}
			cfg.Dispatcher.Uptime = dist.Exponential{MeanVal: mtbf}
			cfg.Dispatcher.Downtime = dist.Exponential{MeanVal: mttr}
		case "down":
			if haveDown {
				return fmt.Errorf("duplicate down item %q", item)
			}
			haveDown = true
			if len(parts) < 1 || len(parts) > 2 {
				return fmt.Errorf("bad spec %q (want down:drop, down:buffer[:CAP] or down:failover)", item)
			}
			pol, err := netfault.ParseDownPolicy(strings.TrimSpace(parts[0]))
			if err != nil {
				return err
			}
			cap := 0
			if len(parts) == 2 {
				if pol != netfault.DownBuffer {
					return fmt.Errorf("down policy %v takes no capacity (only buffer does)", pol)
				}
				if cap, err = strconv.Atoi(strings.TrimSpace(parts[1])); err != nil {
					return fmt.Errorf("bad buffer capacity %q: %v", parts[1], err)
				}
				if cap < 1 {
					return fmt.Errorf("buffer capacity %d must be at least 1", cap)
				}
			}
			// The crash item may come later in the list; the placeholder
			// dispatcher it creates is checked for after the loop.
			if cfg.Dispatcher == nil {
				cfg.Dispatcher = &netfault.Dispatcher{}
			}
			cfg.Dispatcher.Down = pol
			cfg.Dispatcher.BufferCap = cap
		case "part":
			p, err := parsePartition(item, kind, parts)
			if err != nil {
				return err
			}
			cfg.Partitions = append(cfg.Partitions, p)
		default:
			return fmt.Errorf("unknown netfault spec %q (want loss:P[:LINK], dup:P[:LINK], lat:MEAN[:LINK], crash:MTBF:MTTR, down:..., or part:FROM:TO[:L1+L2+...])", item)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A down item without a crash item configures a dispatcher that never
	// crashes — reject it as almost certainly a mistake.
	if cfg.Dispatcher != nil && cfg.Dispatcher.Uptime == nil {
		return nil, fmt.Errorf("down item requires a crash:MTBF:MTTR item")
	}
	cfg.Link, cfg.PerLink = links.links()
	if !cfg.Enabled() {
		return nil, nil
	}
	return cfg, nil
}

// ParseAckSpec parses "TO[:BUDGET[:BASE:MAX[:JITTER]]]". Empty returns
// hasSpec false (ack tracking disabled). An explicit budget must be at
// least 1 and an explicit backoff base and max positive: only omitted
// fields take the netfault defaults.
func ParseAckSpec(s string) (ack netfault.Ack, hasSpec bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return netfault.Ack{}, false, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 1 && len(parts) != 2 && len(parts) != 4 && len(parts) != 5 {
		return ack, false, fmt.Errorf("bad ack spec %q (want TO[:BUDGET[:BASE:MAX[:JITTER]]])", s)
	}
	if ack.Timeout, err = ParseNum(parts[0], "ack timeout", false); err != nil {
		return ack, false, err
	}
	if !(ack.Timeout > 0) {
		return ack, false, fmt.Errorf("ack timeout %v must be positive", ack.Timeout)
	}
	if len(parts) >= 2 {
		budget, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil {
			return ack, false, fmt.Errorf("bad resubmission budget %q: %v", parts[1], err)
		}
		if budget < 1 {
			return ack, false, fmt.Errorf("resubmission budget %d must be at least 1", budget)
		}
		ack.Budget = budget
	}
	if len(parts) >= 4 {
		if ack.BackoffBase, err = ParseNum(parts[2], "backoff base", true); err != nil {
			return ack, false, err
		}
		if ack.BackoffMax, err = ParseNum(parts[3], "backoff max", true); err != nil {
			return ack, false, err
		}
	}
	if len(parts) == 5 {
		if ack.Jitter, err = ParseNum(parts[4], "backoff jitter", false); err != nil {
			return ack, false, err
		}
	}
	return ack, true, nil
}

// DStateSpec is a parsed -dstate value: the recovery policy plus its
// optional timing knobs (zeros mean the netfault defaults).
type DStateSpec struct {
	Recovery     netfault.Recovery
	CheckpointDT float64
	RelearnT     float64
	ClientTO     float64
}

// ParseDStateSpec parses "acks", "ckpt:DT[:CLIENTTO]" or
// "cold[:RELEARN[:CLIENTTO]]". Empty returns nil (keep the dispatcher's
// default recovery, which is acks).
func ParseDStateSpec(s string) (*DStateSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	kind, rest, _ := strings.Cut(s, ":")
	kind = strings.TrimSpace(kind)
	parts := []string{}
	if rest != "" {
		parts = strings.Split(rest, ":")
	}
	ds := &DStateSpec{}
	var err error
	switch kind {
	case "acks":
		if len(parts) != 0 {
			return nil, fmt.Errorf("bad dstate spec %q (acks takes no arguments)", s)
		}
		ds.Recovery = netfault.RecoverAcks
	case "ckpt", "checkpoint":
		if len(parts) != 1 && len(parts) != 2 {
			return nil, fmt.Errorf("bad dstate spec %q (want ckpt:DT[:CLIENTTO])", s)
		}
		ds.Recovery = netfault.RecoverCheckpoint
		if ds.CheckpointDT, err = ParseNum(parts[0], "checkpoint period", true); err != nil {
			return nil, err
		}
		if len(parts) == 2 {
			if ds.ClientTO, err = ParseNum(parts[1], "client timeout", true); err != nil {
				return nil, err
			}
		}
	case "cold":
		if len(parts) > 2 {
			return nil, fmt.Errorf("bad dstate spec %q (want cold[:RELEARN[:CLIENTTO]])", s)
		}
		ds.Recovery = netfault.RecoverCold
		if len(parts) >= 1 {
			if ds.RelearnT, err = ParseNum(parts[0], "relearn window", true); err != nil {
				return nil, err
			}
		}
		if len(parts) == 2 {
			if ds.ClientTO, err = ParseNum(parts[1], "client timeout", true); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown dstate spec %q (want acks, ckpt:DT[:CLIENTTO] or cold[:RELEARN[:CLIENTTO]])", s)
	}
	return ds, nil
}
