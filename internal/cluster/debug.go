package cluster

import (
	"fmt"
	"time"
)

// DebugSession is the /debug/obs view of one hosted session.
type DebugSession struct {
	Key        string   `json:"key"`
	Epoch      int64    `json:"epoch"`
	Durability string   `json:"durability"`
	Frames     int      `json:"frames"`
	Durable    int64    `json:"durable"` // replication watermark: highest seq every gating replica acked
	Replicas   []string `json:"replicas"`
	Degraded   bool     `json:"degraded,omitempty"`
	// Diagnostic is the typed slow-ack explanation while degraded: which
	// condition is stalling client acks and for how long.
	Diagnostic string `json:"diagnostic,omitempty"`
	Handoff    string `json:"handoff,omitempty"` // drain target while a handoff is in flight
}

// DebugReplica is the /debug/obs view of one replica log held for a peer.
type DebugReplica struct {
	Key    string `json:"key"`
	Epoch  int64  `json:"epoch"`
	Frames int    `json:"frames"`
	Feeder string `json:"feeder,omitempty"` // live feeding owner, empty when idle
}

// DebugLink is the /debug/obs view of one outgoing replication link.
type DebugLink struct {
	Peer      string `json:"peer"`
	Connected bool   `json:"connected"`
}

// DebugCluster is the node's /debug/obs section: per-session incarnation
// epochs, durability modes, replication watermarks and degradation
// diagnostics — the state behind the hb_cluster_* metrics.
type DebugCluster struct {
	Self     string         `json:"self"`
	Draining bool           `json:"draining,omitempty"`
	Hosted   []DebugSession `json:"hosted,omitempty"`
	Replicas []DebugReplica `json:"replicas,omitempty"`
	Links    []DebugLink    `json:"links,omitempty"`
}

// DebugState snapshots the node for the /debug/obs sections map.
func (n *Node) DebugState() any {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := DebugCluster{Self: n.self, Draining: n.draining}
	for key, hs := range n.hosted {
		ds := DebugSession{
			Key:        key,
			Epoch:      hs.epoch,
			Durability: hs.mode.String(),
			Frames:     len(hs.log),
			Durable:    hs.durable,
			Replicas:   append([]string(nil), hs.replicas...),
			Degraded:   hs.degraded,
		}
		if hs.degraded {
			ds.Diagnostic = fmt.Sprintf("replica-outage: durable acks stalled at seq %d for %s",
				hs.durable, time.Since(hs.stalled).Round(time.Millisecond))
		}
		if hs.handoff != nil {
			ds.Handoff = hs.handoff.target
		}
		d.Hosted = append(d.Hosted, ds)
	}
	for key, rl := range n.replicated {
		d.Replicas = append(d.Replicas, DebugReplica{Key: key, Epoch: rl.epoch, Frames: len(rl.log), Feeder: rl.from})
	}
	for peer, l := range n.links {
		d.Links = append(d.Links, DebugLink{Peer: peer, Connected: l.connected})
	}
	return d
}
