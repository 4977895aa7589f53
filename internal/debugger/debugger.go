// Package debugger implements an interactive debugging environment for
// the happened-before model — the environment the paper's conclusion
// plans "making use of the algorithms presented here".
//
// A Session holds a computation and a current consistent cut. The user
// steps the cut event by event (forward and backward through the lattice),
// inspects variables, channels and the frontier, evaluates predicates at
// the current cut, runs full CTL detection, jumps to the least cut
// satisfying a linear predicate (the advancement algorithm), and replays
// detection witnesses cut by cut.
package debugger

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/computation"
	"repro/internal/core"
	"repro/internal/ctl"
	"repro/internal/diagram"
	"repro/internal/predicate"
	"repro/internal/sim"
)

// Session is one debugging session. Methods write human-readable output
// to Out.
type Session struct {
	comp *computation.Computation
	cut  computation.Cut
	path []computation.Cut // loaded witness path, if any
	pos  int               // position within path
	out  io.Writer
}

// NewSession starts a session at the initial cut.
func NewSession(comp *computation.Computation, out io.Writer) *Session {
	return &Session{comp: comp, cut: comp.InitialCut(), out: out}
}

// Cut returns the current cut.
func (s *Session) Cut() computation.Cut { return s.cut.Copy() }

// Execute runs one command line and returns io.EOF for quit. Unknown
// commands and argument errors are reported to Out without failing the
// session.
func (s *Session) Execute(line string) error {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), cmd))
	switch cmd {
	case "help", "?":
		s.help()
	case "info":
		s.info()
	case "cut":
		s.showCut()
	case "vars":
		s.showVars()
	case "channels":
		s.showChannels()
	case "diagram":
		s.showDiagram(args)
	case "events":
		s.showEvents(args)
	case "step":
		s.step(args)
	case "back":
		s.back(args)
	case "goto":
		s.jump(args)
	case "reset":
		s.cut = s.comp.InitialCut()
		s.showCut()
	case "end":
		s.cut = s.comp.FinalCut()
		s.showCut()
	case "eval":
		s.eval(rest)
	case "detect":
		s.detect(rest)
	case "least":
		s.least(rest)
	case "play":
		s.play(rest)
	case "next":
		s.move(1)
	case "prev":
		s.move(-1)
	case "quit", "exit", "q":
		return io.EOF
	default:
		fmt.Fprintf(s.out, "unknown command %q; try help\n", cmd)
	}
	return nil
}

func (s *Session) help() {
	fmt.Fprint(s.out, `commands:
  info                computation summary
  cut                 show the current cut, frontier and enabled events
  vars                variable values at the current cut
  channels            messages in flight at the current cut
  diagram [vars]      ASCII space-time diagram with the current cut marked
  events [Pi]         list events (of process i)
  step [Pi]           execute the next event (of process i)
  back [Pi]           undo the last event (of process i)
  goto k1 k2 ...      jump to a consistent cut
  reset | end         jump to the initial | final cut
  eval PRED           evaluate a non-temporal predicate at the current cut
  detect FORMULA      run CTL detection on the whole computation
  least PRED          jump to the least cut satisfying a linear predicate
  play FORMULA        load a witness path for EG/EU/EF and walk it
  next | prev         move along the loaded witness path
  quit
`)
}

func (s *Session) info() {
	fmt.Fprintf(s.out, "%s\n", sim.Describe(s.comp))
	for i := 0; i < s.comp.N(); i++ {
		fmt.Fprintf(s.out, "  P%d: %d events, vars %v\n", i+1, s.comp.Len(i), s.comp.Vars(i))
	}
}

func (s *Session) showCut() {
	fmt.Fprintf(s.out, "cut %v (%d/%d events)\n", s.cut, s.cut.Size(), s.comp.TotalEvents())
	if fr := s.comp.Frontier(s.cut); len(fr) > 0 {
		names := make([]string, len(fr))
		for i, e := range fr {
			names[i] = e.String()
		}
		fmt.Fprintf(s.out, "  frontier: %s\n", strings.Join(names, ", "))
	}
	if en := s.comp.Enabled(s.cut); len(en) > 0 {
		names := make([]string, len(en))
		for i, p := range en {
			names[i] = s.comp.Event(p, s.cut[p]+1).String()
		}
		fmt.Fprintf(s.out, "  enabled:  %s\n", strings.Join(names, ", "))
	} else {
		fmt.Fprintln(s.out, "  enabled:  (none — final cut)")
	}
}

func (s *Session) showVars() {
	for i := 0; i < s.comp.N(); i++ {
		vars := s.comp.Vars(i)
		if len(vars) == 0 {
			continue
		}
		parts := make([]string, 0, len(vars))
		for _, name := range vars {
			v, _ := s.comp.Value(i, s.cut[i], name)
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
		fmt.Fprintf(s.out, "  P%d[%d]: %s\n", i+1, s.cut[i], strings.Join(parts, " "))
	}
}

func (s *Session) showChannels() {
	ids := s.comp.Messages()
	inFlight := 0
	for _, id := range ids {
		snd := s.comp.SendOf(id)
		if s.cut[snd.Proc] < snd.Index {
			continue
		}
		rcv := s.comp.RecvOf(id)
		if rcv != nil && s.cut[rcv.Proc] >= rcv.Index {
			continue
		}
		inFlight++
		dst := "(never received)"
		if rcv != nil {
			dst = fmt.Sprintf("P%d", rcv.Proc+1)
		}
		fmt.Fprintf(s.out, "  msg %d: P%d → %s in flight\n", id, snd.Proc+1, dst)
	}
	if inFlight == 0 {
		fmt.Fprintln(s.out, "  channels empty")
	}
}

func (s *Session) showDiagram(args []string) {
	opts := diagram.Options{Cut: s.cut}
	for _, a := range args {
		if a == "vars" {
			opts.ShowVars = true
			opts.Width = 14
		}
	}
	fmt.Fprint(s.out, diagram.Render(s.comp, opts))
}

func (s *Session) showEvents(args []string) {
	procs := make([]int, 0, s.comp.N())
	if len(args) > 0 {
		p, err := parseProc(args[0], s.comp.N())
		if err != nil {
			fmt.Fprintln(s.out, err)
			return
		}
		procs = append(procs, p)
	} else {
		for i := 0; i < s.comp.N(); i++ {
			procs = append(procs, i)
		}
	}
	for _, i := range procs {
		for _, e := range s.comp.Events(i) {
			mark := " "
			if s.cut[i] >= e.Index {
				mark = "*"
			}
			extra := ""
			if sets := s.comp.AppendAssignments(nil, e); len(sets) > 0 {
				parts := make([]string, len(sets))
				for j, a := range sets {
					parts[j] = fmt.Sprintf("%s=%d", a.Name, a.Value)
				}
				extra = " {" + strings.Join(parts, " ") + "}"
			}
			fmt.Fprintf(s.out, " %s P%d:%d %s clock=%v%s\n", mark, i+1, e.Index, e.Kind, e.Clock, extra)
		}
	}
}

func (s *Session) step(args []string) {
	var proc = -1
	if len(args) > 0 {
		p, err := parseProc(args[0], s.comp.N())
		if err != nil {
			fmt.Fprintln(s.out, err)
			return
		}
		proc = p
	}
	if proc >= 0 {
		if !s.comp.EnabledEvent(s.cut, proc) {
			fmt.Fprintf(s.out, "P%d has no enabled event at %v\n", proc+1, s.cut)
			return
		}
		s.cut[proc]++
	} else {
		en := s.comp.Enabled(s.cut)
		if len(en) == 0 {
			fmt.Fprintln(s.out, "already at the final cut")
			return
		}
		s.cut[en[0]]++
	}
	s.showCut()
}

func (s *Session) back(args []string) {
	var proc = -1
	if len(args) > 0 {
		p, err := parseProc(args[0], s.comp.N())
		if err != nil {
			fmt.Fprintln(s.out, err)
			return
		}
		proc = p
	}
	if proc >= 0 {
		if !s.comp.MaximalEvent(s.cut, proc) {
			fmt.Fprintf(s.out, "P%d's last event is not removable at %v\n", proc+1, s.cut)
			return
		}
		s.cut[proc]--
	} else {
		preds := s.comp.Predecessors(s.cut)
		if len(preds) == 0 {
			fmt.Fprintln(s.out, "already at the initial cut")
			return
		}
		s.cut = preds[0]
	}
	s.showCut()
}

func (s *Session) jump(args []string) {
	if len(args) != s.comp.N() {
		fmt.Fprintf(s.out, "goto needs %d counters\n", s.comp.N())
		return
	}
	cut := computation.NewCut(s.comp.N())
	for i, a := range args {
		v, err := strconv.Atoi(a)
		if err != nil {
			fmt.Fprintf(s.out, "bad counter %q\n", a)
			return
		}
		cut[i] = v
	}
	if !s.comp.Consistent(cut) {
		fmt.Fprintf(s.out, "cut %v is not consistent\n", cut)
		return
	}
	s.cut = cut
	s.showCut()
}

func (s *Session) compile(src string) (predicate.Predicate, bool) {
	f, err := ctl.Parse(src)
	if err != nil {
		fmt.Fprintln(s.out, err)
		return nil, false
	}
	if ctl.IsTemporal(f) {
		fmt.Fprintln(s.out, "eval/least take non-temporal predicates; use detect for temporal formulas")
		return nil, false
	}
	p, err := core.Compile(f)
	if err != nil {
		fmt.Fprintln(s.out, err)
		return nil, false
	}
	return p, true
}

func (s *Session) eval(src string) {
	p, ok := s.compile(src)
	if !ok {
		return
	}
	fmt.Fprintf(s.out, "%s at %v: %v\n", p, s.cut, p.Eval(s.comp, s.cut))
}

func (s *Session) detect(src string) {
	f, err := ctl.Parse(src)
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	res, err := core.Detect(s.comp, f)
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	fmt.Fprintf(s.out, "%s: %v (via %s)\n", f, res.Holds, res.Algorithm)
	if res.Counterexample != nil {
		fmt.Fprintf(s.out, "counterexample: %v — use 'goto' to inspect it\n", res.Counterexample)
	}
	if len(res.Witness) > 0 {
		fmt.Fprintf(s.out, "witness with %d cuts — use 'play %s' to walk it\n", len(res.Witness), f)
	}
}

func (s *Session) least(src string) {
	p, ok := s.compile(src)
	if !ok {
		return
	}
	lin, okL := p.(predicate.Linear)
	if !okL {
		if local, okLoc := p.(predicate.LocalPredicate); okLoc {
			lin = predicate.Conj(local)
		} else {
			fmt.Fprintf(s.out, "%s is not linear; least cut undefined\n", p)
			return
		}
	}
	cut, found := core.LeastCut(s.comp, lin)
	if !found {
		fmt.Fprintf(s.out, "no consistent cut satisfies %s\n", p)
		return
	}
	s.cut = cut
	fmt.Fprintf(s.out, "jumped to I_p = %v\n", cut)
	s.showCut()
}

func (s *Session) play(src string) {
	f, err := ctl.Parse(src)
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	res, err := core.Detect(s.comp, f)
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	if !res.Holds || len(res.Witness) == 0 {
		fmt.Fprintf(s.out, "no witness path: formula holds=%v\n", res.Holds)
		return
	}
	s.path = res.Witness
	s.pos = 0
	s.cut = s.path[0].Copy()
	fmt.Fprintf(s.out, "loaded witness with %d cuts; 'next'/'prev' to walk\n", len(s.path))
	s.showCut()
}

func (s *Session) move(delta int) {
	if len(s.path) == 0 {
		fmt.Fprintln(s.out, "no witness loaded; use play")
		return
	}
	next := s.pos + delta
	if next < 0 || next >= len(s.path) {
		fmt.Fprintln(s.out, "end of witness path")
		return
	}
	s.pos = next
	s.cut = s.path[s.pos].Copy()
	fmt.Fprintf(s.out, "witness cut %d/%d\n", s.pos+1, len(s.path))
	s.showCut()
}

func parseProc(arg string, n int) (int, error) {
	arg = strings.TrimPrefix(arg, "P")
	p, err := strconv.Atoi(arg)
	if err != nil || p < 1 || p > n {
		return 0, fmt.Errorf("bad process %q (want P1..P%d)", arg, n)
	}
	return p - 1, nil
}
