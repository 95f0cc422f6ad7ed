package sparql

import (
	"fmt"
	"maps"
	"sort"
)

// checkScope refuses the shapes whose answer would depend on the evaluator
// seeding a nested group with the rows of the elements before it, where
// SPARQL evaluates the group on its own and joins (§18.5). The seed of a
// nested group is what the elements to its left may bind, at every enclosing
// level up to the root or the nearest EXISTS, whose group sees the filtered
// row substituted (§18.6). A triple pattern, a nested group and a UNION (what
// every branch binds) bind a variable in every row; compile.go's
// elemProg.binds is the same rule over slots, and the two change together.
// Refused:
//
//	R1: a BIND whose target an earlier element of its group, or the row an
//	    enclosing EXISTS filters, may bind (§18.2.1);
//	R2: an OPTIONAL that mentions, at any depth, a seed variable no earlier
//	    element of its group binds in every row: the query is not
//	    well-designed;
//	R3: a FILTER or FILTER [NOT] EXISTS that names a seed variable its group
//	    does not bind in every row (an EXISTS: at any depth), or a BIND one no
//	    earlier element binds in every row. The filters of an OPTIONAL's group
//	    are its LeftJoin's condition: R2 covers them.
//
// The check is one walk with a frame per group being checked, a log of what
// they may bind — a frame's bindings are the log from its start on, its own
// and its done groups' — and per variable the stack of the frames that may
// bind it. A group done hands its bindings to the frame around it; a UNION's
// branches are each taken back when done, and what any of them binds is then
// bound around the UNION. A variable an element names is held to every
// OPTIONAL and EXISTS around it. Parse bounds nesting at maxDepth, so a
// binding moves at most maxDepth times and a mention meets at most maxDepth
// checkpoints.
func checkScope(where *GroupPattern) error {
	s := &scope{binders: map[string][]*frame{}}
	return s.group(where, &frame{})
}

type varSet map[string]bool

// add adds v to s, which it makes when s is nil.
func (s varSet) add(v string) varSet {
	if s == nil {
		s = varSet{}
	}
	s[v] = true
	return s
}

// frame is a group being checked.
type frame struct {
	level, ctx int  // nesting depth, and that of the nearest EXISTS group (0: the root)
	start      int  // where the frame's bindings begin in the log
	leftJoin   bool // an OPTIONAL's group, whose filters are the LeftJoin's condition
	// What the elements checked so far bind in every row; of a done group's,
	// only the variables in the frame's seed, the only ones a check reads.
	every varSet
}

// checkpoint holds the variables an element names to the group at: one in
// at's seed that at does not bind in every row (before the element, for an
// OPTIONAL or a BIND) is refused.
type checkpoint struct {
	at    *frame
	elem  func() string // the element, for the message
	where string
	outer *checkpoint // the OPTIONAL or EXISTS around this one
}

// scope is the state of one check.
type scope struct {
	log     []string            // what the frames being checked may bind, each once per frame
	binders map[string][]*frame // per variable, the frames being checked that may bind it, outermost first
	top     *checkpoint         // the innermost OPTIONAL or EXISTS being checked
}

// seeded reports whether v is in g's seed: whether a group around g, in its
// EXISTS context, may bind v to g's left.
func (s *scope) seeded(v string, g *frame) bool {
	b := s.binders[v]
	i := sort.Search(len(b), func(i int) bool { return b[i].level >= g.level })
	return i > 0 && b[i-1].level >= g.ctx
}

// check holds vars, which an element of the group being checked names, to c
// and the checkpoints around it.
func (s *scope) check(vars []string, c *checkpoint) error {
	for ; c != nil; c = c.outer {
		for _, v := range vars {
			if s.seeded(v, c.at) && !c.at.every[v] {
				return fmt.Errorf("sparql: %s uses ?%s from outside its group, where nothing%s binds it in every row", c.elem(), v, c.where)
			}
		}
	}
	return nil
}

// bind records that f, the innermost frame, may bind v.
func (s *scope) bind(f *frame, v string) {
	if b := s.binders[v]; len(b) == 0 || b[len(b)-1] != f {
		s.binders[v] = append(b, f)
		s.log = append(s.log, v)
	}
}

// takeBack takes the done frame c's bindings off the binders, leaving them in
// the log.
func (s *scope) takeBack(c *frame) {
	for _, v := range s.log[c.start:] {
		s.binders[v] = s.binders[v][:len(s.binders[v])-1]
	}
}

// adopt binds on f, the innermost frame, the log from the index from on, and
// adds to f.every what every holds of f's seed.
func (s *scope) adopt(f *frame, from int, every varSet) {
	vars := s.log[from:]
	s.log = s.log[:from] // bind writes behind what the loop reads
	for _, v := range vars {
		s.bind(f, v)
	}
	for v := range every {
		if s.seeded(v, f) {
			f.every = f.every.add(v)
		}
	}
}

// nested checks g, an element of f, as a frame of its own, and returns it
// with its bindings taken back.
func (s *scope) nested(g *GroupPattern, f *frame, leftJoin bool) (*frame, error) {
	c := &frame{level: f.level + 1, ctx: f.ctx, start: len(s.log), leftJoin: leftJoin}
	if err := s.group(g, c); err != nil {
		return nil, err
	}
	s.takeBack(c)
	return c, nil
}

// group checks g as the frame f, leaving in f what g binds.
func (s *scope) group(g *GroupPattern, f *frame) error {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			vars := [...]string{el.S.Var, "", el.O.Var}
			if pv, ok := el.P.(predVarPath); ok {
				vars[1] = pv.name
			}
			if err := s.check(vars[:], s.top); err != nil {
				return err
			}
			for _, v := range vars {
				if v != "" {
					s.bind(f, v)
					f.every = f.every.add(v)
				}
			}
		case BindElem:
			text := func() string { return printed(func(w *printer) { w.bind(el) }) }
			if err := s.check(append(exprVars(el.Expr), el.Var), &checkpoint{at: f, elem: text, where: " before it", outer: s.top}); err != nil {
				return err
			}
			if len(s.binders[el.Var]) > 0 {
				return fmt.Errorf("sparql: %s assigns ?%s, which is already in scope there", text(), el.Var)
			}
			s.bind(f, el.Var)
		case OptionalElem:
			prev := s.top
			s.top = &checkpoint{at: f, elem: func() string { return "OPTIONAL" }, where: " before it", outer: prev}
			c, err := s.nested(el.Group, f, true)
			if s.top = prev; err != nil {
				return err
			}
			s.adopt(f, c.start, nil)
		case GroupElem:
			c, err := s.nested(el.Group, f, false)
			if err != nil {
				return err
			}
			s.adopt(f, c.start, c.every)
		case UnionElem:
			// Each branch is checked on f's seed alone; f binds what any
			// branch binds, and in every row what every branch does.
			from := len(s.log)
			var every varSet
			for i, b := range el.Branches {
				c, err := s.nested(b, f, false)
				if err != nil {
					return err
				}
				if i == 0 {
					every = c.every
				}
				maps.DeleteFunc(every, func(v string, _ bool) bool { return !c.every[v] })
			}
			s.adopt(f, from, every)
		}
	}
	// A filter reads the rows of the whole group.
	for _, el := range g.Elems {
		switch el := el.(type) {
		case FilterElem:
			c := s.top
			if !f.leftJoin {
				c = &checkpoint{at: f, elem: func() string { return printed(func(w *printer) { w.filter(el.Expr) }) }, outer: s.top}
			}
			if err := s.check(exprVars(el.Expr), c); err != nil {
				return err
			}
		case FilterExistsElem:
			prev := s.top
			if !f.leftJoin {
				s.top = &checkpoint{at: f, elem: func() string { return existsLabel(el.Not) }, outer: prev}
			}
			c := &frame{level: f.level + 1, ctx: f.level + 1, start: len(s.log)}
			err := s.group(el.Group, c)
			if s.top = prev; err != nil {
				return err
			}
			s.takeBack(c)
			s.log = s.log[:c.start]
		}
	}
	return nil
}

func isFilter(el PatternElem) bool {
	switch el.(type) {
	case FilterElem, FilterExistsElem:
		return true
	}
	return false
}
