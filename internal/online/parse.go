package online

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/pir"
	"repro/internal/predicate"
)

// ParseConj parses a non-temporal conjunctive predicate in the ctl syntax
// — conj(x@P1 == 1, y@P2 >= 2) or a single comparison — into the local
// comparisons WatchEF / WatchAG take. The predicate is
// compiled and classified by the pir package — the same IR the offline
// detector dispatches on — so the monitors and the server can never
// disagree with core.Detect about what counts as conjunctive. Only
// variable comparisons are supported online; temporal operators and other
// predicate forms are errors. Shared by hbmon and hbserver, which both
// accept watch predicates as text.
//
// A parse is cached process-wide by its source text, since sessions
// mostly register the same few watches; every call returns a slice of its
// own.
func ParseConj(src string) ([]predicate.VarCmp, error) {
	templates.mu.Lock()
	locals, ok := templates.m[src]
	templates.mu.Unlock()
	if ok {
		return slices.Clone(locals), nil
	}
	locals, err := parseConj(src)
	if err == nil && len(src) <= maxTemplateLen {
		templates.mu.Lock()
		if len(templates.m) >= maxTemplates {
			clear(templates.m)
		}
		templates.m[src] = locals
		templates.mu.Unlock()
		locals = slices.Clone(locals)
	}
	return locals, err
}

// The template cache is bounded: longer texts are not cached, and a full
// cache is cleared.
const maxTemplates, maxTemplateLen = 1024, 1024

// templates maps a watch's source text to its parse, which no caller
// holds.
var templates = struct {
	mu sync.Mutex
	m  map[string][]predicate.VarCmp
}{m: make(map[string][]predicate.VarCmp)}

func parseConj(src string) ([]predicate.VarCmp, error) {
	p, err := pir.CompileSource(src)
	if err != nil {
		return nil, fmt.Errorf("watch %q must be a non-temporal conjunctive predicate: %v", src, err)
	}
	locals, ok := p.ConjunctLocals()
	if !ok {
		return nil, fmt.Errorf("watch %q must be conjunctive, got %s (class %s)", src, p.P, p.Class)
	}
	out := make([]predicate.VarCmp, 0, len(locals))
	for _, l := range locals {
		vc, ok := l.(predicate.VarCmp)
		if !ok {
			return nil, fmt.Errorf("watch %q: only variable comparisons are supported online", src)
		}
		out = append(out, vc)
	}
	return out, nil
}
