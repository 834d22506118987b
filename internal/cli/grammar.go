package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heterosched/internal/dist"
	"heterosched/internal/netfault"
)

// This file holds the pieces of spec grammar the layer parsers share:
// numeric fields, comma-separated KIND:ARG:... item lists, and the link
// and partition items that -netfault and -ctrl both accept.

// ParseNum parses one numeric spec field named what. The value must be
// finite, and with positive also > 0. Errors quote raw as given.
func ParseNum(raw, what string, positive bool) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", what, raw, err)
	}
	if positive && (!(v > 0) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("%s %v must be positive and finite", what, v)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s %v must be finite", what, v)
	}
	return v, nil
}

// eachItem calls fn for every non-empty item of a comma-separated
// KIND[:ARG[:ARG...]] list, with the trimmed item, its kind and its
// colon-separated arguments. It stops at the first error.
func eachItem(s string, fn func(item, kind string, args []string) error) error {
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, _ := strings.Cut(item, ":")
		args := []string{}
		if rest != "" {
			args = strings.Split(rest, ":")
		}
		if err := fn(item, strings.TrimSpace(kind), args); err != nil {
			return err
		}
	}
	return nil
}

// linkItems collects the link-model items of -netfault and -ctrl:
// loss:P[:LINK], dup:P[:LINK] and lat:MEAN[:LINK]. An item without a
// link index sets the default model; an indexed one patches that link
// over the default, whatever the item order.
type linkItems struct {
	def     map[string]float64         // kind -> value
	patches map[int]map[string]float64 // link -> kind -> value
}

// parse records one loss, dup or lat item.
func (li *linkItems) parse(item, kind string, args []string) error {
	if len(args) != 1 && len(args) != 2 {
		return fmt.Errorf("bad spec %q (want %s:VALUE[:LINK])", item, kind)
	}
	v, err := ParseNum(args[0], kind+" value", false)
	if err != nil {
		return err
	}
	if kind == "lat" && v < 0 {
		return fmt.Errorf("latency mean %g is negative", v)
	}
	if kind != "lat" && (v < 0 || v > 1) {
		return fmt.Errorf("%s probability %g outside [0, 1]", kind, v)
	}
	if len(args) == 1 {
		if _, dup := li.def[kind]; dup {
			return fmt.Errorf("duplicate default %s item %q", kind, item)
		}
		if li.def == nil {
			li.def = map[string]float64{}
		}
		li.def[kind] = v
		return nil
	}
	idx, err := strconv.Atoi(strings.TrimSpace(args[1]))
	if err != nil {
		return fmt.Errorf("bad link index %q: %v", args[1], err)
	}
	if idx < 0 {
		return fmt.Errorf("link index %d must be >= 0 (omit for all links)", idx)
	}
	if li.patches == nil {
		li.patches = map[int]map[string]float64{}
	}
	p := li.patches[idx]
	if p == nil {
		p = map[string]float64{}
		li.patches[idx] = p
	}
	if _, dup := p[kind]; dup {
		return fmt.Errorf("duplicate %s item for link %d", kind, idx)
	}
	p[kind] = v
	return nil
}

// links returns the default link model and the per-link models, nil
// when no item names a link.
func (li *linkItems) links() (netfault.Link, map[int]netfault.Link) {
	var def netfault.Link
	applyLink(&def, li.def)
	if len(li.patches) == 0 {
		return def, nil
	}
	per := make(map[int]netfault.Link, len(li.patches))
	for idx, p := range li.patches {
		l := def
		applyLink(&l, p)
		per[idx] = l
	}
	return def, per
}

// applyLink overrides the fields of l that items sets; a zero latency
// mean clears the latency model.
func applyLink(l *netfault.Link, items map[string]float64) {
	for kind, v := range items {
		switch kind {
		case "loss":
			l.Loss = v
		case "dup":
			l.Dup = v
		default:
			l.Latency = nil
			if v > 0 {
				l.Latency = dist.Exponential{MeanVal: v}
			}
		}
	}
}

// parsePartition parses a partition window KIND:FROM:TO[:L1+L2+...]; no
// link list means every link.
func parsePartition(item, kind string, args []string) (netfault.Partition, error) {
	var p netfault.Partition
	if len(args) != 2 && len(args) != 3 {
		return p, fmt.Errorf("bad spec %q (want %s:FROM:TO[:L1+L2+...])", item, kind)
	}
	var err error
	if p.From, err = ParseNum(args[0], "partition start", false); err != nil {
		return p, err
	}
	if p.To, err = ParseNum(args[1], "partition end", false); err != nil {
		return p, err
	}
	if len(args) == 2 {
		return p, nil
	}
	for _, tok := range strings.Split(args[2], "+") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return p, fmt.Errorf("bad spec %q: empty link in list", item)
		}
		idx, err := strconv.Atoi(tok)
		if err != nil {
			return p, fmt.Errorf("bad partition link %q: %v", tok, err)
		}
		if idx < 0 {
			return p, fmt.Errorf("partition link %d must be >= 0", idx)
		}
		p.Links = append(p.Links, idx)
	}
	return p, nil
}
