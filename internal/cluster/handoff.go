package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/server"
)

// handoffState tracks one in-flight drain transfer of a hosted session.
// done receives the outcome exactly once (finish is idempotent), so the
// ack reader, a supersede, and a link loss can all race to settle it.
type handoffState struct {
	target string // replica adopting the session
	epoch  int64  // the bumped epoch the session transfers under
	once   sync.Once
	done   chan error
}

func newHandoffState(target string, epoch int64) *handoffState {
	return &handoffState{target: target, epoch: epoch, done: make(chan error, 1)}
}

// finish settles the handoff with err (nil = adopted). Idempotent.
func (ho *handoffState) finish(err error) {
	ho.once.Do(func() { ho.done <- err })
}

// Drain gracefully hands every hosted session to a live replica before
// the node is taken out of service: for each session it detaches the
// client, waits until the target replica has acknowledged the complete
// frame log, then transfers ownership under a bumped epoch. The drained
// client is redirected (stale-epoch, carrying the new owner) and resumes
// there with zero frame loss — the planned-removal counterpart of crash
// failover. Drain is idempotent; once it starts, the node stops
// accepting new placements and recovery promotions. Sessions that cannot
// be handed off (no live replica, ctx expired, target refused) stay
// hosted and are reported in the returned error; the ordinary failover
// path still covers them if the node dies anyway.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	already := n.draining
	n.draining = true
	keys := make([]string, 0, len(n.hosted))
	for key, hs := range n.hosted {
		if !hs.bye {
			keys = append(keys, key)
		}
	}
	n.mu.Unlock()
	if already {
		return nil
	}

	// A cancelled ctx must wake the racked-watermark waits below.
	unwatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			n.mu.Lock()
			n.cond.Broadcast()
			n.mu.Unlock()
		case <-unwatch:
		}
	}()
	defer close(unwatch)

	var firstErr error
	handed := 0
	for _, key := range keys {
		if err := n.handoffSession(ctx, key); err != nil {
			n.log("cluster: drain: handoff of %s failed: %v", key, err)
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: drain: handoff of %s: %w", key, err)
			}
			continue
		}
		handed++
	}
	n.log("cluster: drain complete: %d/%d sessions handed off", handed, len(keys))
	return firstErr
}

// handoffSession transfers one hosted session to its first connected
// replica. The sequence is: mark the handoff (which vetoes resumes),
// kick the client's transport so no new frames land, wait under mu until
// the target's ack watermark covers the full log, then — in the same
// critical section, so no frame can slip in between — queue the typed
// handoff offer on the target's link. The replica validates the offer
// against its log, promotes, and answers; completeHandoff/failHandoff
// settle the outcome.
func (n *Node) handoffSession(ctx context.Context, key string) error {
	n.mu.Lock()
	hs := n.hosted[key]
	if hs == nil || hs.bye {
		n.mu.Unlock()
		return nil // finished (or finishing) on its own
	}
	var l *peerLink
	for _, peer := range hs.replicas {
		if cand := n.links[peer]; cand != nil && cand.connected {
			l = cand
			break
		}
	}
	if l == nil {
		n.mu.Unlock()
		return fmt.Errorf("no live replica among %v", hs.replicas)
	}
	epoch := n.mintEpochLocked(key, hs.epoch)
	ho := newHandoffState(l.peer, epoch)
	hs.handoff = ho
	n.mu.Unlock()

	// Detach the client: its in-flight frames either arrive before the
	// watermark wait below settles (and transfer with the log) or are
	// rejected at the old epoch after the transfer and replayed by the
	// client on the new owner — exactly-once either way.
	if sess := n.srv.Session(key); sess != nil {
		sess.Kick()
	}

	n.mu.Lock()
	for n.hosted[key] == hs && hs.handoff == ho && ctx.Err() == nil &&
		l.racked[key] < int64(len(hs.log)) {
		n.cond.Wait()
	}
	if n.hosted[key] != hs || hs.handoff != ho {
		// Settled elsewhere: link loss aborted it, or a supersede/bye
		// removed the session.
		n.mu.Unlock()
		select {
		case err := <-ho.done:
			return err
		default:
			return fmt.Errorf("session left the node mid-handoff")
		}
	}
	if ctx.Err() != nil {
		hs.handoff = nil
		n.mu.Unlock()
		return ctx.Err()
	}
	l.control = append(l.control, replMsg{Type: msgReplHandoff, Session: key, Epoch: epoch, Seq: int64(len(hs.log))})
	n.cond.Broadcast()
	n.mu.Unlock()

	select {
	case err := <-ho.done:
		return err
	case <-ctx.Done():
		n.mu.Lock()
		if n.hosted[key] == hs && hs.handoff == ho {
			hs.handoff = nil
		}
		n.mu.Unlock()
		return ctx.Err()
	}
}

// completeHandoff settles a drain transfer on the owner side after the
// replica's handoff-ack: the session's hosted state is dropped, the
// local (already kicked) session is tombstoned with a redirect to the
// new owner, and the drain loop is released.
func (n *Node) completeHandoff(key, peer string, epoch int64) {
	n.mu.Lock()
	hs := n.hosted[key]
	if hs == nil || hs.handoff == nil || hs.handoff.target != peer || hs.handoff.epoch != epoch {
		n.mu.Unlock()
		return
	}
	ho := hs.handoff
	hs.handoff = nil
	n.dropHostedLocked(hs)
	n.met.handoffs.Inc()
	n.observeEpochLocked(key, epoch)
	n.cond.Broadcast()
	n.mu.Unlock()
	n.srv.Supersede(key, peer, fmt.Sprintf("drained to %s (epoch %d)", peer, epoch))
	ho.finish(nil)
	n.log("cluster: handed off %s to %s (epoch %d)", key, peer, epoch)
}

// failHandoff settles a drain transfer that the replica refused. The
// session stays hosted here.
func (n *Node) failHandoff(key, peer string, err error) {
	n.mu.Lock()
	hs := n.hosted[key]
	if hs == nil || hs.handoff == nil || hs.handoff.target != peer {
		n.mu.Unlock()
		return
	}
	ho := hs.handoff
	hs.handoff = nil
	n.mu.Unlock()
	ho.finish(err)
}

// vetoResume is the server's resume-veto hook: while a session's drain
// handoff is in flight its kicked client must not reattach here — the
// frame log is mid-transfer. The client sees the retryable busy code,
// backs off, and by the next attempt the tombstone redirect (or a
// completed abort) gives it a definitive answer.
func (n *Node) vetoResume(session string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	hs := n.hosted[session]
	if hs != nil && hs.handoff != nil {
		return &server.RejectError{
			Code: server.CodeBusy,
			Msg:  fmt.Sprintf("cluster: session %q is being handed off; retry", session),
		}
	}
	return nil
}
