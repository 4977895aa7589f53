package cluster

import (
	"fmt"

	"repro/internal/pir"
	"repro/internal/server"
)

// Test-only access to the replication codec and logs for the external
// test package, which speaks the link protocol by hand.

// Entry encodes f as a log entry, exactly as onAccept does.
func Entry(f server.ClientFrame) []byte { return new(entryEncoder).encode(f) }

// DataFrame returns the wire bytes of one replication data frame.
func DataFrame(session string, epoch, seq int64, entry []byte) []byte {
	return appendDataFrame(nil, appendFrameHeader(nil, session, epoch), seq, entry)
}

// Logs returns the node's hosted and replica logs for key (nil when it
// holds none). The entries are shared, not copied: read only.
func (n *Node) Logs(key string) (hosted, replica [][]byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if hs := n.hosted[key]; hs != nil {
		hosted = append([][]byte(nil), hs.log...)
	}
	if rl := n.replicated[key]; rl != nil {
		replica = append([][]byte(nil), rl.log...)
	}
	return hosted, replica
}

// CheckReplicaLogs verifies what a promotion relies on: every entry of
// every replica log decodes, and entry i carries seq i+1.
func (n *Node) CheckReplicaLogs() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	var vt pir.VarTable
	for key, rl := range n.replicated {
		for i, entry := range rl.log {
			f, err := decodeEntry(entry, &vt, new(pir.Batch))
			if err != nil {
				return fmt.Errorf("replica log %s entry %d: %v", key, i+1, err)
			}
			if f.Seq != int64(i+1) {
				return fmt.Errorf("replica log %s entry %d carries seq %d", key, i+1, f.Seq)
			}
		}
	}
	return nil
}
