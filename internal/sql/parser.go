package sql

import (
	"fmt"
	"strconv"
	"strings"

	"datacell/internal/expr"
	"datacell/internal/relop"
	"datacell/internal/vector"
)

// Parse parses a semicolon-separated script into statements.
func Parse(src string) ([]Statement, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for !p.at(TokEOF, "") {
		if p.acceptOp(";") {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.acceptOp(";") && !p.at(TokEOF, "") && !p.at(TokKeyword, "end") {
			return nil, p.errf("expected ';' after statement, got %s", p.peek())
		}
	}
	return out, nil
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	ss, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(ss) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(ss))
	}
	return ss[0], nil
}

type parser struct {
	toks []Token
	i    int
}

func (p *parser) peek() Token { return p.toks[p.i] }
func (p *parser) next() Token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k TokKind, text string) bool {
	t := p.peek()
	return t.Kind == k && (text == "" || t.Text == text)
}

func (p *parser) acceptKw(kw string) bool {
	if p.at(TokKeyword, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) acceptOp(op string) bool {
	if p.at(TokOp, op) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %q, got %s", kw, p.peek())
	}
	return nil
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, got %s", op, p.peek())
	}
	return nil
}

// softKeywords may double as identifiers (column or basket names): they
// only act as keywords in their specific syntactic slots (interval units,
// type names).
var softKeywords = map[string]bool{
	"second": true, "seconds": true, "minute": true, "minutes": true,
	"hour": true, "hours": true, "day": true, "days": true,
	"timestamp": true, "text": true, "stream": true,
	"explain": true, "analyze": true,
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TokIdent && !(t.Kind == TokKeyword && softKeywords[t.Text]) {
		return "", p.errf("expected identifier, got %s", t)
	}
	p.i++
	return t.Text, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: parse error at offset %d: %s", p.peek().Pos, fmt.Sprintf(format, args...))
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.at(TokKeyword, "select"):
		return p.selectStmt()
	case p.at(TokKeyword, "insert"):
		return p.insertStmt()
	case p.at(TokKeyword, "create"):
		return p.createStmt()
	case p.at(TokKeyword, "declare"):
		return p.declareStmt()
	case p.at(TokKeyword, "set"):
		return p.setStmt()
	case p.at(TokKeyword, "with"):
		return p.withBlock()
	case p.at(TokKeyword, "explain"):
		return p.explainStmt()
	case p.at(TokOp, "["):
		// A bare basket expression used as a statement: select everything
		// from it (the paper's heartbeat example).
		b, err := p.basketExpr()
		if err != nil {
			return nil, err
		}
		return &SelectStmt{
			Top:   -1,
			Items: []SelectItem{{Star: true}},
			From:  []TableRef{{Basket: b, Alias: "b"}},
		}, nil
	}
	return nil, p.errf("expected statement, got %s", p.peek())
}

// explainStmt parses the two explain forms: `explain <statement>`
// describes how a statement would compile and wire; `explain analyze
// <query-name>` reports the stage timings of a registered running query.
func (p *parser) explainStmt() (Statement, error) {
	p.next() // explain
	if p.acceptKw("analyze") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Analyze: true, Query: name}, nil
	}
	inner, err := p.statement()
	if err != nil {
		return nil, err
	}
	if _, nested := inner.(*ExplainStmt); nested {
		return nil, p.errf("explain cannot nest")
	}
	return &ExplainStmt{Stmt: inner}, nil
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKw("select"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Top: -1}
	if p.acceptKw("distinct") {
		s.Distinct = true
	}
	if p.acceptKw("top") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Top = n
	}
	// Select list. "select top 20 from X" and "select all from X" mean *.
	if p.at(TokKeyword, "from") || p.acceptKw("all") {
		s.Items = []SelectItem{{Star: true}}
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			s.Items = append(s.Items, *item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("from") {
		for {
			tr, err := p.tableRef()
			if err != nil {
				return nil, err
			}
			s.From = append(s.From, *tr)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKw("group") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("having") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	// UNION [ALL]: the second branch is parsed recursively; any ORDER BY
	// and LIMIT it carries apply to the combined result and are hoisted
	// to this statement.
	if p.acceptKw("union") {
		all := p.acceptKw("all")
		rhs, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		s.Union, s.UnionAll = rhs, all
		s.OrderBy, rhs.OrderBy = rhs.OrderBy, nil
		s.Top, rhs.Top = rhs.Top, -1
		return s, nil
	}
	if p.acceptKw("order") {
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			oi := OrderItem{Expr: e}
			if p.acceptKw("desc") {
				oi.Desc = true
			} else {
				p.acceptKw("asc")
			}
			s.OrderBy = append(s.OrderBy, oi)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("limit") {
		n, err := p.intLiteral()
		if err != nil {
			return nil, err
		}
		s.Top = n
	}
	return s, nil
}

func (p *parser) selectItem() (*SelectItem, error) {
	if p.acceptOp("*") {
		return &SelectItem{Star: true}, nil
	}
	// alias.* form
	if p.peek().Kind == TokIdent && p.toks[p.i+1].Kind == TokOp && p.toks[p.i+1].Text == "." &&
		p.toks[p.i+2].Kind == TokOp && p.toks[p.i+2].Text == "*" {
		alias := p.next().Text
		p.next() // .
		p.next() // *
		return &SelectItem{Star: true, StarAlias: strings.ToLower(alias)}, nil
	}
	item := &SelectItem{}
	if agg, ok := p.tryAgg(); ok {
		a, err := agg()
		if err != nil {
			return nil, err
		}
		item.Agg = a
	} else {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		item.Expr = e
	}
	if p.acceptKw("as") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		item.Alias = a
	} else if p.peek().Kind == TokIdent {
		item.Alias = p.next().Text
	}
	return item, nil
}

// tryAgg peeks for an aggregate keyword followed by '('.
func (p *parser) tryAgg() (func() (*AggSpec, error), bool) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, false
	}
	var kind relop.AggKind
	switch t.Text {
	case "count":
		kind = relop.AggCount
	case "sum":
		kind = relop.AggSum
	case "avg":
		kind = relop.AggAvg
	case "min":
		kind = relop.AggMin
	case "max":
		kind = relop.AggMax
	default:
		return nil, false
	}
	if !(p.toks[p.i+1].Kind == TokOp && p.toks[p.i+1].Text == "(") {
		return nil, false
	}
	return func() (*AggSpec, error) {
		p.next() // agg keyword
		p.next() // (
		spec := &AggSpec{Kind: kind}
		if p.acceptKw("distinct") {
			spec.Distinct = true
		}
		if p.acceptOp("*") {
			spec.Star = true
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			spec.Arg = e
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return spec, nil
	}, true
}

func (p *parser) tableRef() (*TableRef, error) {
	tr := &TableRef{}
	switch {
	case p.at(TokOp, "["):
		b, err := p.basketExpr()
		if err != nil {
			return nil, err
		}
		tr.Basket = b
	case p.at(TokOp, "("):
		p.next()
		sub, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		tr.Sub = sub
	default:
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr.Name = strings.ToLower(name)
	}
	if p.acceptKw("as") {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr.Alias = strings.ToLower(a)
	} else if p.peek().Kind == TokIdent {
		tr.Alias = strings.ToLower(p.next().Text)
	}
	if tr.Alias == "" {
		tr.Alias = tr.Name
	}
	return tr, nil
}

// basketExpr parses [select …]. The sub-query is syntactically an ordinary
// select; the brackets give it the delete side-effect semantics.
func (p *parser) basketExpr() (*SelectStmt, error) {
	if err := p.expectOp("["); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("]"); err != nil {
		return nil, err
	}
	return sel, nil
}

func (p *parser) insertStmt() (*InsertStmt, error) {
	if err := p.expectKw("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Target: strings.ToLower(name)}
	if p.acceptOp("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Cols = append(ins.Cols, strings.ToLower(c))
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.at(TokKeyword, "select"):
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		ins.Query = sel
	case p.at(TokOp, "["):
		b, err := p.basketExpr()
		if err != nil {
			return nil, err
		}
		ins.Query = &SelectStmt{
			Top:   -1,
			Items: []SelectItem{{Star: true}},
			From:  []TableRef{{Basket: b, Alias: "b"}},
		}
	case p.at(TokKeyword, "values"):
		return nil, p.errf("insert … values is not supported; use insert … select")
	default:
		return nil, p.errf("expected select or basket expression after insert target")
	}
	return ins, nil
}

func (p *parser) createStmt() (*CreateStmt, error) {
	if err := p.expectKw("create"); err != nil {
		return nil, err
	}
	var kind string
	switch {
	case p.acceptKw("basket"), p.acceptKw("stream"):
		kind = "basket"
	case p.acceptKw("table"):
		kind = "table"
	default:
		return nil, p.errf("expected basket, stream or table after create")
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cs := &CreateStmt{Kind: kind, Name: strings.ToLower(name)}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		cn, err := p.ident()
		if err != nil {
			return nil, err
		}
		ct, err := p.typeName()
		if err != nil {
			return nil, err
		}
		cs.Cols = append(cs.Cols, ColDef{Name: strings.ToLower(cn), Type: ct})
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return cs, nil
}

func (p *parser) typeName() (vector.Type, error) {
	t := p.peek()
	if t.Kind != TokKeyword && t.Kind != TokIdent {
		return 0, p.errf("expected type name, got %s", t)
	}
	p.i++
	typ, err := vector.ParseType(t.Text)
	if err != nil {
		return 0, p.errf("%v", err)
	}
	// Optional length, e.g. varchar(32): parsed and ignored.
	if p.acceptOp("(") {
		if _, err := p.intLiteral(); err != nil {
			return 0, err
		}
		if err := p.expectOp(")"); err != nil {
			return 0, err
		}
	}
	return typ, nil
}

func (p *parser) declareStmt() (*DeclareStmt, error) {
	if err := p.expectKw("declare"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	typ, err := p.typeName()
	if err != nil {
		return nil, err
	}
	return &DeclareStmt{Name: strings.ToLower(name), Type: typ}, nil
}

func (p *parser) setStmt() (*SetStmt, error) {
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &SetStmt{Name: strings.ToLower(name), Value: e}, nil
}

func (p *parser) withBlock() (*WithBlock, error) {
	if err := p.expectKw("with"); err != nil {
		return nil, err
	}
	alias, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	b, err := p.basketExpr()
	if err != nil {
		return nil, err
	}
	w := &WithBlock{Alias: strings.ToLower(alias), Basket: b}
	if err := p.expectKw("begin"); err != nil {
		return nil, err
	}
	for !p.at(TokKeyword, "end") {
		if p.acceptOp(";") {
			continue
		}
		var s Statement
		switch {
		case p.at(TokKeyword, "insert"):
			s, err = p.insertStmt()
		case p.at(TokKeyword, "set"):
			s, err = p.setStmt()
		default:
			return nil, p.errf("with-block body allows insert and set statements, got %s", p.peek())
		}
		if err != nil {
			return nil, err
		}
		w.Body = append(w.Body, s)
		if !p.acceptOp(";") && !p.at(TokKeyword, "end") {
			return nil, p.errf("expected ';' in with-block, got %s", p.peek())
		}
	}
	p.next() // end
	if len(w.Body) == 0 {
		return nil, p.errf("empty with-block body")
	}
	return w, nil
}

func (p *parser) intLiteral() (int, error) {
	t := p.peek()
	if t.Kind != TokNumber {
		return 0, p.errf("expected number, got %s", t)
	}
	n, err := strconv.Atoi(t.Text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.Text)
	}
	p.i++
	return n, nil
}

// ---- expressions (precedence climbing) ----

func (p *parser) expr() (expr.Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (expr.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = expr.NewBin(expr.Or, l, r)
	}
	return l, nil
}

func (p *parser) andExpr() (expr.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = expr.NewBin(expr.And, l, r)
	}
	return l, nil
}

func (p *parser) notExpr() (expr.Expr, error) {
	if p.acceptKw("not") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(e), nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]expr.BinOp{
	"=": expr.Eq, "<>": expr.Ne, "<": expr.Lt, "<=": expr.Le, ">": expr.Gt, ">=": expr.Ge,
}

func (p *parser) cmpExpr() (expr.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokOp {
		if op, ok := cmpOps[t.Text]; ok {
			p.i++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return expr.NewBin(op, l, r), nil
		}
	}
	// Postfix predicates: [NOT] BETWEEN / IN / LIKE.
	negate := false
	if p.at(TokKeyword, "not") {
		nxt := p.toks[p.i+1]
		if nxt.Kind == TokKeyword && (nxt.Text == "between" || nxt.Text == "in" || nxt.Text == "like") {
			p.i++
			negate = true
		}
	}
	switch {
	case p.acceptKw("between"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("and"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return expr.NewBetween(l, lo, hi, negate), nil
	case p.acceptKw("in"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var vals []vector.Value
		for {
			e, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			v, ok := constExprValue(e)
			if !ok {
				return nil, p.errf("IN list elements must be constants")
			}
			vals = append(vals, v)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return expr.NewInList(l, vals, negate), nil
	case p.acceptKw("like"):
		t := p.peek()
		if t.Kind != TokString {
			return nil, p.errf("LIKE expects a string pattern, got %s", t)
		}
		p.i++
		return expr.NewLike(l, t.Text, negate), nil
	}
	if negate {
		return nil, p.errf("dangling NOT")
	}
	return l, nil
}

// constExprValue folds a parsed expression into a constant Value if it is
// one (possibly negated).
func constExprValue(e expr.Expr) (vector.Value, bool) {
	switch n := e.(type) {
	case *expr.Const:
		return n.Val, true
	case *expr.Neg:
		if v, ok := constExprValue(n.E); ok {
			switch v.Kind {
			case vector.Int, vector.Timestamp:
				v.I = -v.I
				return v, true
			case vector.Float:
				v.F = -v.F
				return v, true
			}
		}
	}
	return vector.Value{}, false
}

func (p *parser) addExpr() (expr.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.Add, l, r)
		case p.acceptOp("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.Sub, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (expr.Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.Mul, l, r)
		case p.acceptOp("/"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.Div, l, r)
		case p.acceptOp("%"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = expr.NewBin(expr.Mod, l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) unaryExpr() (expr.Expr, error) {
	if p.acceptOp("-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return expr.NewNeg(e), nil
	}
	if p.acceptOp("+") {
		return p.unaryExpr()
	}
	return p.primary()
}

// caseExpr parses a searched CASE expression. The ELSE arm is required:
// the engine has no NULL values.
func (p *parser) caseExpr() (expr.Expr, error) {
	if err := p.expectKw("case"); err != nil {
		return nil, err
	}
	var whens []expr.WhenClause
	for p.acceptKw("when") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("then"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		whens = append(whens, expr.WhenClause{Cond: cond, Then: then})
	}
	if len(whens) == 0 {
		return nil, p.errf("case without when arms")
	}
	if !p.acceptKw("else") {
		return nil, p.errf("case requires an else arm")
	}
	els, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	return expr.NewCase(whens, els), nil
}

// intervalMicros maps interval unit keywords to microseconds.
var intervalMicros = map[string]int64{
	"second": 1e6, "seconds": 1e6,
	"minute": 60e6, "minutes": 60e6,
	"hour": 3600e6, "hours": 3600e6,
	"day": 86400e6, "days": 86400e6,
}

func (p *parser) primary() (expr.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.i++
		// "1 hour" shorthand: a number followed by an interval unit is an
		// interval constant in microseconds (the paper's now()-1 hour).
		if u := p.peek(); u.Kind == TokKeyword {
			if us, ok := intervalMicros[u.Text]; ok {
				p.i++
				n, err := strconv.ParseInt(t.Text, 10, 64)
				if err != nil {
					return nil, p.errf("bad interval %q", t.Text)
				}
				return expr.NewConst(vector.NewInt(n * us)), nil
			}
		}
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.Text)
			}
			return expr.NewConst(vector.NewFloat(f)), nil
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.Text)
		}
		return expr.NewConst(vector.NewInt(n)), nil
	case TokString:
		p.i++
		return expr.NewConst(vector.NewStr(t.Text)), nil
	case TokKeyword:
		switch t.Text {
		case "true":
			p.i++
			return expr.NewConst(vector.NewBool(true)), nil
		case "false":
			p.i++
			return expr.NewConst(vector.NewBool(false)), nil
		case "null":
			return nil, p.errf("null literals are not supported")
		case "interval":
			// interval '5' second
			p.i++
			v := p.peek()
			if v.Kind != TokString && v.Kind != TokNumber {
				return nil, p.errf("expected interval magnitude, got %s", v)
			}
			p.i++
			n, err := strconv.ParseInt(v.Text, 10, 64)
			if err != nil {
				return nil, p.errf("bad interval %q", v.Text)
			}
			u := p.peek()
			us, ok := intervalMicros[u.Text]
			if !ok {
				return nil, p.errf("expected interval unit, got %s", u)
			}
			p.i++
			return expr.NewConst(vector.NewInt(n * us)), nil
		case "case":
			return p.caseExpr()
		case "count", "sum", "avg", "min", "max":
			return nil, p.errf("aggregate %s not allowed in this context", t.Text)
		}
		if softKeywords[t.Text] {
			p.i++
			return p.identPrimary(t.Text)
		}
		return nil, p.errf("unexpected keyword %s in expression", t)
	case TokOp:
		if t.Text == "(" {
			p.i++
			// Scalar subquery or parenthesised expression.
			if p.at(TokKeyword, "select") {
				sel, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sel: sel}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	case TokIdent:
		p.i++
		return p.identPrimary(t.Text)
	}
	return nil, p.errf("unexpected token %s in expression", t)
}

// identPrimary parses the remainder of a primary that started with an
// identifier (or soft keyword): a qualified column, a function call or a
// bare column reference.
func (p *parser) identPrimary(name string) (expr.Expr, error) {
	// Qualified column a.b
	if p.at(TokOp, ".") {
		p.i++
		f, err := p.ident()
		if err != nil {
			return nil, err
		}
		return expr.NewCol(strings.ToLower(name) + "." + strings.ToLower(f)), nil
	}
	// Function call
	if p.at(TokOp, "(") {
		p.i++
		var args []expr.Expr
		if !p.at(TokOp, ")") {
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return expr.NewCall(name, args...), nil
	}
	return expr.NewCol(strings.ToLower(name)), nil
}
