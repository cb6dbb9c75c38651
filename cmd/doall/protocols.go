package main

import (
	"fmt"
	"slices"
	"strings"

	"repro"
	"repro/internal/core"
)

// The subcommands resolve -protocol names in core's protocol table: run and
// sweep take the entries doall.Protocol numbers, ProtocolA through Gossip;
// explore, live, serve and join take every entry that builds from (n, t)
// alone.
var (
	runProtocols   = core.Protocols[:doall.Gossip-doall.ProtocolA+1]
	planeProtocols = slices.DeleteFunc(slices.Clone(core.Protocols), func(p core.Protocol) bool { return p.NeedsK })
)

// protocolUsage is the -protocol help text: ps's names in table order.
func protocolUsage(ps []core.Protocol) string {
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return "protocol: " + strings.Join(names, "|")
}

// lookupProtocol resolves a case-insensitive name to its index in ps and
// its entry.
func lookupProtocol(ps []core.Protocol, name string) (int, core.Protocol, error) {
	for i, p := range ps {
		if p.Name == strings.ToLower(name) {
			return i, p, nil
		}
	}
	return 0, core.Protocol{}, fmt.Errorf("unknown protocol %q", name)
}

// runProtocol resolves a run or sweep name to its doall.Protocol.
func runProtocol(name string) (doall.Protocol, error) {
	i, _, err := lookupProtocol(runProtocols, name)
	return doall.ProtocolA + doall.Protocol(i), err
}
