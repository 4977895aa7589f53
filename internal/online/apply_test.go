package online

import (
	"math"
	"testing"

	"repro/internal/pir"
)

// applyState is what a rejected row must leave as it was.
type applyState struct{ events, inFlight, rec, maxMsg int }

func stateOf(m *Monitor) applyState {
	return applyState{m.Events(), m.InFlight(), m.rec.Len(), m.maxMsg}
}

// TestApplyRejections pins each text Apply rejects a row with, in the
// order the checks run, straight from the monitor: hbserver reports these
// texts to its clients unchanged. Message 7 is sent by P1 (proc 0) first.
func TestApplyRejections(t *testing.T) {
	for _, tc := range []struct {
		name            string
		proc, msg       int
		kind            byte
		want            string
		receivedAlready bool // message 7 was received by P2 before the row
	}{
		{name: "proc below", proc: -1, kind: pir.EvInternal, want: "process 0 outside [1,2]"},
		{name: "proc above", proc: 2, kind: pir.EvReceive, msg: 7, want: "process 3 outside [1,2]"},
		{name: "init kind", proc: 0, kind: pir.EvInit, want: "unknown event kind 3"},
		{name: "other kind", proc: 1, kind: 9, want: "unknown event kind 9"},
		{name: "send reuses id", proc: 1, kind: pir.EvSend, msg: 7, want: "message 7 sent twice"},
		{name: "send id past int32", proc: 0, kind: pir.EvSend, msg: math.MaxInt32 + 1, want: "message id 2147483648 outside the int32 range"},
		{name: "unknown message", proc: 1, kind: pir.EvReceive, msg: 8, want: "receive of unknown message 8 (dropped or unsent)"},
		{name: "received twice", proc: 1, kind: pir.EvReceive, msg: 7, receivedAlready: true, want: "online: message 7 received twice"},
		{name: "received by sender", proc: 0, kind: pir.EvReceive, msg: 7, want: "online: message 7 received by its sender"},
	} {
		for _, bounded := range []bool{false, true} {
			m := NewMonitor(2)
			if bounded {
				m = NewBoundedMonitor(2)
			}
			if err := m.Apply(0, pir.EvSend, 7, nil); err != nil {
				t.Fatal(err)
			}
			if tc.receivedAlready {
				if err := m.Apply(1, pir.EvReceive, 7, nil); err != nil {
					t.Fatal(err)
				}
			}
			before := stateOf(m)
			err := m.Apply(tc.proc, tc.kind, tc.msg, []pir.VarSet{{Name: "x", Val: 1}})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s (bounded %v): error %v, want %q", tc.name, bounded, err, tc.want)
			}
			if after := stateOf(m); after != before || m.Value(0, "x") != 0 || m.Value(1, "x") != 0 {
				t.Errorf("%s (bounded %v): rejected row changed the monitor: %+v → %+v", tc.name, bounded, before, after)
			}
		}
	}
}

// FuzzApplyRows feeds arbitrary rows to a 3-process monitor, bounded and
// unbounded, with an EF, an AG and a quiescence watch registered: Apply
// must never panic, a rejected row must leave the monitor as it was, and
// the unbounded record of the admitted rows must build. Each row is four
// bytes: proc and msg as signed bytes (so out-of-range processes and
// colliding, negative ids come often), the kind, and an assignment to
// one of three names when its high bit is set.
func FuzzApplyRows(f *testing.F) {
	f.Add([]byte{0, pir.EvSend, 1, 0x81, 1, pir.EvReceive, 1, 0x02})
	f.Add([]byte{0, pir.EvSend, 5, 0, 0, pir.EvSend, 5, 0, 1, pir.EvReceive, 5, 0, 2, pir.EvReceive, 5, 0})
	f.Add([]byte{0xff, pir.EvInternal, 0, 0x80, 3, pir.EvInternal, 0, 0, 2, pir.EvInit, 0, 0x83})
	f.Add([]byte{1, pir.EvSend, 0x80, 0x81, 1, pir.EvReceive, 0x80, 0x81, 2, pir.EvReceive, 0x80, 0xc1})
	f.Fuzz(func(t *testing.T, data []byte) {
		names := [...]string{"x", "y", "z"}
		for _, bounded := range []bool{false, true} {
			m := NewMonitor(3)
			if bounded {
				m = NewBoundedMonitor(3)
			}
			m.WatchEF(Cmp(0, "x", "==", 1), Cmp(1, "y", "==", 1))
			m.WatchAG(Cmp(2, "z", "<", 3))
			m.WatchQuiescent("quiet", Cmp(0, "x", ">=", 0))
			var sets []pir.VarSet
			admitted := 0
			for rows := data; len(rows) >= 4; rows = rows[4:] {
				proc, kind, msg := int(int8(rows[0])), rows[1], int(int8(rows[2]))
				sets = sets[:0]
				if a := rows[3]; a&0x80 != 0 {
					sets = append(sets, pir.VarSet{Name: names[int(a&0x7f)%len(names)], Val: int(a&0x7f) / len(names) % 4})
				}
				before := stateOf(m)
				if err := m.Apply(proc, kind, msg, sets); err != nil {
					if after := stateOf(m); after != before {
						t.Fatalf("rejected row (%d,%d,%d): %v; monitor moved %+v → %+v", proc, kind, msg, err, before, after)
					}
					continue
				}
				admitted++
			}
			if m.Events() != admitted {
				t.Fatalf("Events() = %d after %d admitted rows", m.Events(), admitted)
			}
			if !bounded {
				if got := m.Snapshot().TotalEvents(); got != admitted {
					t.Fatalf("snapshot holds %d events, want %d", got, admitted)
				}
			}
		}
	})
}
