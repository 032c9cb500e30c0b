package main

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/spatiotext/latest/internal/persist"
)

// parseFaultSpec turns the -disk-fault flag into injector rules. The
// grammar is semicolon-separated rules, each an operation name optionally
// followed by colon-introduced comma-separated modifiers:
//
//	append:after=500,count=100;sync:count=5
//	save:after=2
//	append:after=10,count=1,short
//
// Operations: append, sync, save, load, remove, open, any. Modifiers:
// after=N (let N matching calls through first), count=M (fire M times
// then expire; omitted = forever), short (torn write instead of a clean
// failure). Calls are what the disk sees: append matches one WAL write —
// a whole feed batch, or the pipelined frames the server coalesced into
// one — not one object.
func parseFaultSpec(spec string) ([]persist.FaultRule, error) {
	var rules []persist.FaultRule
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		opStr, rest, _ := strings.Cut(part, ":")
		var rule persist.FaultRule
		switch opStr {
		case "append":
			rule.Op = persist.FaultAppend
		case "sync":
			rule.Op = persist.FaultSync
		case "save":
			rule.Op = persist.FaultSave
		case "load":
			rule.Op = persist.FaultLoad
		case "remove":
			rule.Op = persist.FaultRemove
		case "open":
			rule.Op = persist.FaultOpenAppend
		case "any":
			rule.Op = persist.FaultAnyOp
		default:
			return nil, fmt.Errorf("unknown fault operation %q (want append, sync, save, load, remove, open or any)", opStr)
		}
		for _, mod := range strings.Split(rest, ",") {
			mod = strings.TrimSpace(mod)
			if mod == "" {
				continue
			}
			key, val, hasVal := strings.Cut(mod, "=")
			switch {
			case key == "short" && !hasVal:
				rule.Kind = persist.FaultShortWrite
			case key == "after" && hasVal:
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault rule %q: after: %w", part, err)
				}
				rule.After = n
			case key == "count" && hasVal:
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("fault rule %q: count: %w", part, err)
				}
				rule.Count = n
			default:
				return nil, fmt.Errorf("fault rule %q: unknown modifier %q", part, mod)
			}
		}
		rules = append(rules, rule)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("empty fault spec")
	}
	return rules, nil
}
