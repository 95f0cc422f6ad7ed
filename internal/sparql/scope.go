package sparql

import (
	"fmt"
	"maps"
	"slices"
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
// The check is one pass that copies no scope. A group hands what it binds to
// the group around it by merging the smaller set into the larger, and a UNION
// checks its largest branch last, so that only the other branches' bindings
// are taken back before the next branch and restored after the last; a
// binding moves O(log n) times in all. A variable an OPTIONAL or EXISTS
// mentions is held where it is named, to the innermost such checkpoint of
// each EXISTS context: an outer checkpoint of the same context refuses
// nothing more, for the triple pattern that binds the variable in every row
// for the inner one was held to it before. So only nested EXISTS multiply
// the work, as they multiply the compiler's.
func checkScope(where *GroupPattern) error {
	s := &scope{binders: map[string][]*frame{}, size: map[*GroupPattern]int{}}
	s.weigh(where)
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

// union returns s ∪ t, made in the larger of the two.
func union(s, t varSet) varSet {
	if len(s) < len(t) {
		s, t = t, s
	}
	maps.Copy(s, t)
	return s
}

// frame is a group being checked, or one checked whose bindings went to the
// group it is an element of (up).
type frame struct {
	up         *frame
	level, ctx int    // nesting depth, and that of the nearest EXISTS group (0: the root)
	leftJoin   bool   // an OPTIONAL's group, whose filters are the LeftJoin's condition
	may, every varSet // what the elements checked so far may bind, and bind in every row
}

// owner is the frame f's bindings belong to now: f, or the group being
// checked they went to.
func (f *frame) owner() *frame {
	for f.up != nil {
		if f.up.up != nil {
			f.up = f.up.up
		}
		f = f.up
	}
	return f
}

// checkpoint holds the variables an element names to the group at: one in
// at's seed that at does not bind in every row (before the element, for an
// OPTIONAL or a BIND) is refused.
type checkpoint struct {
	at    *frame
	elem  func() string // the element, for the message
	where string
	outer *checkpoint // the innermost checkpoint of the EXISTS contexts around at's
}

// scope is the state of one check.
type scope struct {
	binders map[string][]*frame   // per variable, the frames that may bind it, outermost first
	top     *checkpoint           // the innermost OPTIONAL or EXISTS being checked
	size    map[*GroupPattern]int // elements at any depth, for a UNION's branches
}

// weigh records in size the elements of g and of every group in it, at any
// depth, and returns g's.
func (s *scope) weigh(g *GroupPattern) int {
	n := len(g.Elems)
	for _, el := range g.Elems {
		switch el := el.(type) {
		case OptionalElem:
			n += s.weigh(el.Group)
		case GroupElem:
			n += s.weigh(el.Group)
		case FilterExistsElem:
			n += s.weigh(el.Group)
		case UnionElem:
			for _, b := range el.Branches {
				n += s.weigh(b)
			}
		}
	}
	s.size[g] = n
	return n
}

// seeded reports whether v is in g's seed: whether a group around g, in its
// EXISTS context, may bind v to g's left.
func (s *scope) seeded(v string, g *frame) bool {
	b := s.binders[v]
	i := sort.Search(len(b), func(i int) bool { return b[i].owner().level >= g.level })
	return i > 0 && b[i-1].owner().level >= g.ctx
}

// check holds vars, which an element of the group being checked names, to c
// and the checkpoints beyond it.
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

// enter makes an OPTIONAL or EXISTS of f the innermost checkpoint and returns
// the one to put back after it.
func (s *scope) enter(f *frame, elem func() string, where string) (prev *checkpoint) {
	prev = s.top
	s.top = &checkpoint{at: f, elem: elem, where: where, outer: prev}
	if prev != nil && prev.at.ctx == f.ctx {
		s.top.outer = prev.outer
	}
	return prev
}

// bind records that f may bind v.
func (s *scope) bind(f *frame, v string) {
	if !f.may[v] {
		f.may = f.may.add(v)
		s.binders[v] = append(s.binders[v], f)
	}
}

// unbind takes back what the done frame c may bind.
func (s *scope) unbind(c *frame) {
	for v := range c.may {
		s.binders[v] = s.binders[v][:len(s.binders[v])-1]
	}
}

// adopt hands what the done frame c may bind — and, when every, binds in
// every row — to f, the group c is an element of.
func (s *scope) adopt(f, c *frame, every bool) {
	c.up = f
	small, large := f.may, c.may
	if len(small) > len(large) {
		small, large = large, small
	}
	for v := range small {
		if large[v] {
			s.binders[v] = s.binders[v][:len(s.binders[v])-1] // c's, above f's
		} else {
			large[v] = true
		}
	}
	f.may = large
	if every {
		f.every = union(f.every, c.every)
	}
}

// nested checks g, an element of f, as a frame of its own and returns it.
func (s *scope) nested(g *GroupPattern, f *frame, leftJoin bool) (*frame, error) {
	c := &frame{level: f.level + 1, ctx: f.ctx, leftJoin: leftJoin}
	return c, s.group(g, c)
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
			prev := s.enter(f, func() string { return "OPTIONAL" }, " before it")
			c, err := s.nested(el.Group, f, true)
			if s.top = prev; err != nil {
				return err
			}
			s.adopt(f, c, false)
		case GroupElem:
			c, err := s.nested(el.Group, f, false)
			if err != nil {
				return err
			}
			s.adopt(f, c, true)
		case UnionElem:
			if err := s.union(el, f); err != nil {
				return err
			}
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
				s.enter(f, func() string { return existsLabel(el.Not) }, "")
			}
			c := &frame{level: f.level + 1, ctx: f.level + 1}
			err := s.group(el.Group, c)
			if s.top = prev; err != nil {
				return err
			}
			s.unbind(c)
		}
	}
	return nil
}

// union checks the branches of u, an element of f, each on f's seed alone:
// what one binds is taken back before the next. The largest goes last.
func (s *scope) union(u UnionElem, f *frame) error {
	heavy := 0
	for i, b := range u.Branches {
		if s.size[b] > s.size[u.Branches[heavy]] {
			heavy = i
		}
	}
	order := append(slices.Delete(slices.Clone(u.Branches), heavy, heavy+1), u.Branches[heavy])
	done := make([]*frame, len(order))
	for i, b := range order {
		c, err := s.nested(b, f, false)
		if err != nil {
			return err
		}
		if done[i] = c; i < len(order)-1 {
			s.unbind(c)
		}
	}
	last := done[len(done)-1]
	for _, c := range done[:len(done)-1] {
		for v := range c.may {
			s.bind(last, v)
		}
	}
	// What every branch binds in every row, in the smallest such set.
	every := last.every
	for _, c := range done {
		if len(c.every) < len(every) {
			every = c.every
		}
	}
	for _, c := range done {
		maps.DeleteFunc(every, func(v string, _ bool) bool { return !c.every[v] })
	}
	last.every = every
	s.adopt(f, last, true)
	return nil
}

func isFilter(el PatternElem) bool {
	switch el.(type) {
	case FilterElem, FilterExistsElem:
		return true
	}
	return false
}
